//! Crash-recovery acceptance for the `sarad` store + engine:
//!
//! * stale `.{key}.tmp.<pid>` writer droppings are swept on open (the
//!   regression test for the leak where an interrupted writer's temp
//!   file lived forever);
//! * a `kill -9` mid-write (torn final file, orphaned temp, or both)
//!   restarts clean: the next open rebuilds the size index, quarantines
//!   the torn artifact on first read, and recomputes the right answer;
//! * quarantined evidence is preserved on disk, never deleted.

use sarad::engine::no_progress;
use sarad::{Engine, StoreRead};
use std::path::PathBuf;
use std::sync::atomic::Ordering;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sarad-recov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn knobs_for(seed: u64) -> sara_dse::KnobConfig {
    let w = sara_workloads::by_name("dotprod").unwrap();
    sara_dse::KnobConfig::default_for(&w, "8x8", seed).unwrap()
}

#[test]
fn stale_writer_tmp_files_are_swept_on_open_and_artifacts_still_serve() {
    let dir = tmp_dir("sweep");
    let knobs = knobs_for(7);
    let art = {
        let engine = Engine::open(&dir).unwrap();
        let mut sink = no_progress();
        engine.run(&knobs, &mut sink).unwrap().1
    };

    // Plant writer droppings of the exact shape an interrupted save
    // leaves behind: `.{key}.tmp.<pid>` next to live artifacts in both
    // stage directories.
    std::fs::write(dir.join("sim").join(".deadkey.tmp.4242"), b"half a write").unwrap();
    std::fs::write(dir.join("eval").join(".gone.tmp.1"), b"{").unwrap();

    let engine = Engine::open(&dir).unwrap();
    assert_eq!(
        engine.store().counters.tmp_swept.load(Ordering::Relaxed),
        2,
        "open must sweep every orphaned temp file"
    );
    assert!(!dir.join("sim").join(".deadkey.tmp.4242").exists());
    assert!(!dir.join("eval").join(".gone.tmp.1").exists());

    // The live artifacts survived the sweep and still serve from disk.
    let mut sink = no_progress();
    let (_, again) = engine.run(&knobs, &mut sink).unwrap();
    assert_eq!(again, art);
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 0, "must serve, not recompute");
}

#[test]
fn kill_nine_mid_write_restarts_clean_and_recomputes() {
    let dir = tmp_dir("kill9");
    let knobs = knobs_for(7);
    let (keys, art) = {
        let engine = Engine::open(&dir).unwrap();
        let mut sink = no_progress();
        engine.run(&knobs, &mut sink).unwrap()
    };

    // Simulate dying mid-rename: the sim artifact is torn at its final
    // path AND an orphaned temp file sits beside it.
    let final_path = dir.join("sim").join(format!("{}.json", keys.sim));
    let text = std::fs::read_to_string(&final_path).unwrap();
    std::fs::write(&final_path, &text[..text.len() / 3]).unwrap();
    std::fs::write(dir.join("sim").join(format!(".{}.tmp.777", keys.sim)), &text[..5]).unwrap();

    let engine = Engine::open(&dir).unwrap();
    assert!(engine.store().counters.tmp_swept.load(Ordering::Relaxed) >= 1);
    let mut sink = no_progress();
    let (_, recomputed) = engine.run(&knobs, &mut sink).unwrap();
    assert_eq!(
        recomputed, art,
        "recovery must recompute the exact artifact, not serve the torn one"
    );
    assert!(engine.stats.corrupt_detected.load(Ordering::Relaxed) >= 1);
    assert_eq!(engine.stats.sims_run.load(Ordering::Relaxed), 1);

    // The torn bytes were preserved for post-mortem, not deleted.
    let quarantined = engine.store().quarantine_dir().join(format!("sim-{}.json", keys.sim));
    assert!(quarantined.exists(), "torn artifact must be quarantined, not deleted");

    // And the recompute healed the slot: a third open serves from disk.
    let engine3 = Engine::open(&dir).unwrap();
    assert!(matches!(engine3.store().load("sim", &keys.sim), StoreRead::Hit(_)));
}
