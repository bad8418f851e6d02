//! Lowering contract: what `compile` builds, pinned per case.
//!
//! Each case pins `sara_core::artifact::design_digest` of the compiled
//! design, which hashes every unit, stream, dataflow node, label, depth
//! and the assignment built on them. A case that fails to compile pins
//! a digest of its `CompileError` text instead. A change that claims to
//! keep lowering's output, such as a refactor of `lower.rs`, must leave
//! every row as it is.
//!
//! The cases are the registry workloads at default options on three
//! chips; each workload with one lowering-relevant option changed; each
//! tunable loop at `par` 2 and 4; `dotprod` and `tpchq6` at `par` 32 and
//! 64, which take cross-lane reductions through combine units; the fuzz
//! regression corpus; and a fixed range of generated programs. Together
//! they reach crossbar distribute/collect units, sync barriers and
//! combine units, which default knobs alone never create.

use plasticine_arch::ChipSpec;
use sara_core::artifact::{design_digest, StableHasher};
use sara_core::compile::{compile, CompilerOptions};
use sara_fuzz::{gen, textio};
use sara_ir::{BinOp, DType, Elem, LoopSpec, MemInit, Program};

/// Generated programs `gen::generate(s)` for `s` in this range.
const GEN_SEEDS: std::ops::Range<u64> = 0..64;

/// `(case, digest)`, in the order [`cases`] produces them.
const GOLDEN: &[(&str, &str)] = &[
    ("8x8 dotprod", "e07d8a70313c6067258e5f53a88c4d68"),
    ("8x8 outerprod", "6c44515c16fead736189f0b74c4c8f00"),
    ("8x8 gemm", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("8x8 mlp", "9e274bfcf45efefd5da2f2f48951558a"),
    ("8x8 lstm", "f155191855ea95c43688e08df0988a7f"),
    ("8x8 snet", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("8x8 logreg", "83290a557e4c9512e0a7e5baa599b84d"),
    ("8x8 sgd", "6729e78d76d89e6aed6854ef3f6f139d"),
    ("8x8 kmeans", "8f5ea9f1c05b0d736a5fa8e8dd6af888"),
    ("8x8 gda", "b28f386d0aa9137adc194359da026ac5"),
    ("8x8 tpchq6", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("8x8 bs", "02be3f1bd3a80cf75705ee5635340e58"),
    ("8x8 sort", "686d75ace5dd15f5280911add00d0d2e"),
    ("8x8 ms", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("8x8 pr", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("8x8 rf", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("20x20 dotprod", "e07d8a70313c6067258e5f53a88c4d68"),
    ("20x20 outerprod", "6c44515c16fead736189f0b74c4c8f00"),
    ("20x20 gemm", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("20x20 mlp", "9e274bfcf45efefd5da2f2f48951558a"),
    ("20x20 lstm", "f155191855ea95c43688e08df0988a7f"),
    ("20x20 snet", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("20x20 logreg", "83290a557e4c9512e0a7e5baa599b84d"),
    ("20x20 sgd", "6729e78d76d89e6aed6854ef3f6f139d"),
    ("20x20 kmeans", "8f5ea9f1c05b0d736a5fa8e8dd6af888"),
    ("20x20 gda", "b28f386d0aa9137adc194359da026ac5"),
    ("20x20 tpchq6", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("20x20 bs", "02be3f1bd3a80cf75705ee5635340e58"),
    ("20x20 sort", "686d75ace5dd15f5280911add00d0d2e"),
    ("20x20 ms", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("20x20 pr", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("20x20 rf", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("4x4 dotprod", "e07d8a70313c6067258e5f53a88c4d68"),
    ("4x4 outerprod", "6c44515c16fead736189f0b74c4c8f00"),
    ("4x4 gemm", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("4x4 mlp", "9e274bfcf45efefd5da2f2f48951558a"),
    ("4x4 lstm", "f155191855ea95c43688e08df0988a7f"),
    ("4x4 snet", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("4x4 logreg", "83290a557e4c9512e0a7e5baa599b84d"),
    ("4x4 sgd", "6729e78d76d89e6aed6854ef3f6f139d"),
    ("4x4 kmeans", "8f5ea9f1c05b0d736a5fa8e8dd6af888"),
    ("4x4 gda", "b28f386d0aa9137adc194359da026ac5"),
    ("4x4 tpchq6", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("4x4 bs", "02be3f1bd3a80cf75705ee5635340e58"),
    ("4x4 sort", "686d75ace5dd15f5280911add00d0d2e"),
    ("4x4 ms", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("4x4 pr", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("4x4 rf", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("8x8 dotprod banking off", "e07d8a70313c6067258e5f53a88c4d68"),
    ("8x8 outerprod banking off", "6c44515c16fead736189f0b74c4c8f00"),
    ("8x8 gemm banking off", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("8x8 mlp banking off", "9e274bfcf45efefd5da2f2f48951558a"),
    ("8x8 lstm banking off", "f155191855ea95c43688e08df0988a7f"),
    ("8x8 snet banking off", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("8x8 logreg banking off", "83290a557e4c9512e0a7e5baa599b84d"),
    ("8x8 sgd banking off", "6729e78d76d89e6aed6854ef3f6f139d"),
    ("8x8 kmeans banking off", "8f5ea9f1c05b0d736a5fa8e8dd6af888"),
    ("8x8 gda banking off", "b28f386d0aa9137adc194359da026ac5"),
    ("8x8 tpchq6 banking off", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("8x8 bs banking off", "02be3f1bd3a80cf75705ee5635340e58"),
    ("8x8 sort banking off", "686d75ace5dd15f5280911add00d0d2e"),
    ("8x8 ms banking off", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("8x8 pr banking off", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("8x8 rf banking off", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("8x8 dotprod reduce off", "e07d8a70313c6067258e5f53a88c4d68"),
    ("8x8 outerprod reduce off", "6c44515c16fead736189f0b74c4c8f00"),
    ("8x8 gemm reduce off", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("8x8 mlp reduce off", "9e274bfcf45efefd5da2f2f48951558a"),
    ("8x8 lstm reduce off", "f155191855ea95c43688e08df0988a7f"),
    ("8x8 snet reduce off", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("8x8 logreg reduce off", "83290a557e4c9512e0a7e5baa599b84d"),
    ("8x8 sgd reduce off", "6729e78d76d89e6aed6854ef3f6f139d"),
    ("8x8 kmeans reduce off", "8f5ea9f1c05b0d736a5fa8e8dd6af888"),
    ("8x8 gda reduce off", "b28f386d0aa9137adc194359da026ac5"),
    ("8x8 tpchq6 reduce off", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("8x8 bs reduce off", "02be3f1bd3a80cf75705ee5635340e58"),
    ("8x8 sort reduce off", "814563b41e5d6aaf93680f0865173be8"),
    ("8x8 ms reduce off", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("8x8 pr reduce off", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("8x8 rf reduce off", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("8x8 dotprod relax off", "e07d8a70313c6067258e5f53a88c4d68"),
    ("8x8 outerprod relax off", "6c44515c16fead736189f0b74c4c8f00"),
    ("8x8 gemm relax off", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("8x8 mlp relax off", "9e274bfcf45efefd5da2f2f48951558a"),
    ("8x8 lstm relax off", "21d9e968779601b1105369ad67519096"),
    ("8x8 snet relax off", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("8x8 logreg relax off", "39ead82f280685d3817f2e33f14dc680"),
    ("8x8 sgd relax off", "10bb59c8dd21f7696aee5a39d9ee25ea"),
    ("8x8 kmeans relax off", "9b98894ef03c60893caa1f515b29f3aa"),
    ("8x8 gda relax off", "7f5522e2a44be149ebbaab04a142474a"),
    ("8x8 tpchq6 relax off", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("8x8 bs relax off", "02be3f1bd3a80cf75705ee5635340e58"),
    ("8x8 sort relax off", "686d75ace5dd15f5280911add00d0d2e"),
    ("8x8 ms relax off", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("8x8 pr relax off", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("8x8 rf relax off", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("8x8 dotprod rtelm off", "e07d8a70313c6067258e5f53a88c4d68"),
    ("8x8 outerprod rtelm off", "6c44515c16fead736189f0b74c4c8f00"),
    ("8x8 gemm rtelm off", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("8x8 mlp rtelm off", "9e274bfcf45efefd5da2f2f48951558a"),
    ("8x8 lstm rtelm off", "f155191855ea95c43688e08df0988a7f"),
    ("8x8 snet rtelm off", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("8x8 logreg rtelm off", "83290a557e4c9512e0a7e5baa599b84d"),
    ("8x8 sgd rtelm off", "6729e78d76d89e6aed6854ef3f6f139d"),
    ("8x8 kmeans rtelm off", "8f5ea9f1c05b0d736a5fa8e8dd6af888"),
    ("8x8 gda rtelm off", "b28f386d0aa9137adc194359da026ac5"),
    ("8x8 tpchq6 rtelm off", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("8x8 bs rtelm off", "02be3f1bd3a80cf75705ee5635340e58"),
    ("8x8 sort rtelm off", "686d75ace5dd15f5280911add00d0d2e"),
    ("8x8 ms rtelm off", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("8x8 pr rtelm off", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("8x8 rf rtelm off", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("8x8 dotprod multibuffer 1", "e07d8a70313c6067258e5f53a88c4d68"),
    ("8x8 outerprod multibuffer 1", "6c44515c16fead736189f0b74c4c8f00"),
    ("8x8 gemm multibuffer 1", "5e4a6cf0311dff60a3120aa2e498cd8b"),
    ("8x8 mlp multibuffer 1", "9e274bfcf45efefd5da2f2f48951558a"),
    ("8x8 lstm multibuffer 1", "93dd042a03c016f003db1ae2c8c94413"),
    ("8x8 snet multibuffer 1", "8c51403ff4c3f08098b7797a4ce4d52f"),
    ("8x8 logreg multibuffer 1", "83290a557e4c9512e0a7e5baa599b84d"),
    ("8x8 sgd multibuffer 1", "6729e78d76d89e6aed6854ef3f6f139d"),
    ("8x8 kmeans multibuffer 1", "9b98894ef03c60893caa1f515b29f3aa"),
    ("8x8 gda multibuffer 1", "b28f386d0aa9137adc194359da026ac5"),
    ("8x8 tpchq6 multibuffer 1", "0c8704c9dfa4d0b27774c2325b2bfa4d"),
    ("8x8 bs multibuffer 1", "02be3f1bd3a80cf75705ee5635340e58"),
    ("8x8 sort multibuffer 1", "686d75ace5dd15f5280911add00d0d2e"),
    ("8x8 ms multibuffer 1", "887da7b3a3af736dd0f4cf0e539a09ea"),
    ("8x8 pr multibuffer 1", "d6f7fa44d210f8e833b6bd3e8ae2880f"),
    ("8x8 rf multibuffer 1", "9729ef381d1e7cd1e6313c6aba634c62"),
    ("8x8 dotprod i=2", "a3cf394ffd87d08cd65178c375ecca73"),
    ("8x8 dotprod i=4", "93049fa1aaddf786d16f2722bbabe74d"),
    ("8x8 outerprod j=2", "1627f00df539ef2a319d9bc6ab52ce7d"),
    ("8x8 outerprod j=4", "82759638e9bd42e883d036849ef7acfb"),
    ("8x8 gemm i=2", "bcd5136010238dcac20473cbed1a7f4d"),
    ("8x8 gemm i=4", "0e5b3136d612168b66970a80bd648660"),
    ("8x8 gemm k=2", "3bc269c072f73a59e7134f166d84ca4a"),
    ("8x8 gemm k=4", "caeb084e547d72f5c1e9569d428d122e"),
    ("8x8 mlp l1_i=2", "aa5f4b4b39c3f9389ebb2572f9932daf"),
    ("8x8 mlp l1_i=4", "dabd1519aa740b97d38ac07d32fc50cc"),
    ("8x8 mlp l1_j=2", "8d8f4139226bb46e33f5bd9cf73163bd"),
    ("8x8 mlp l1_j=4", "251d1f1e2e7d6706a1e9d041b247870d"),
    ("8x8 mlp l2_i=2", "f2295af3eff3a378754786d75a3f4593"),
    ("8x8 mlp l2_i=4", "712ed2c5ca570fe6c74916261848220d"),
    ("8x8 mlp l2_j=2", "3a79a24ce222dbc02a87f7acaacf0e1f"),
    ("8x8 mlp l2_j=4", "c507cce1d6446dacbcbe37e66c993443"),
    ("8x8 mlp l3_i=2", "7a8f81432611a0dd4bb45e1c069279ee"),
    ("8x8 mlp l3_i=4", "f731a7c81357139965776a56317c0d92"),
    ("8x8 mlp l3_j=2", "6ef367d1f8e7c1fdb1a8cca9fe4a164a"),
    ("8x8 mlp l3_j=4", "d17e91083672a409d90cd6eed5aa47a2"),
    ("8x8 lstm gi_j=2", "ce86df3282d49c978718aa31e6ac7610"),
    ("8x8 lstm gi_j=4", "3960378bdbfcfa7f464345f7b870022c"),
    ("8x8 lstm gf_j=2", "0bfba82ff5578d59984f062ce68256ae"),
    ("8x8 lstm gf_j=4", "4b929a25020f8701abc4ad8f6fce7baa"),
    ("8x8 lstm go_j=2", "4d02eb3176b19bcd4b2fa6ad257d38a2"),
    ("8x8 lstm go_j=4", "943623ba2585e6bdb3928d931d57f6e2"),
    ("8x8 lstm gg_j=2", "6fabd6ec048afef398616790ec0d3c24"),
    ("8x8 lstm gg_j=4", "1e55d6b239c8fb7387997aa7855009b4"),
    ("8x8 snet oc=2", "889c06aa08f5a6ee477e96e6ef36313d"),
    ("8x8 snet oc=4", "11b2227f19c48c803013694715a74fff"),
    ("8x8 snet k=2", "b6dccd00a4ffc7f3adc8ae0e20b29018"),
    ("8x8 snet k=4", "71fd4797c94a671797a86c7e6e6053b8"),
    ("8x8 snet poc=2", "f4d604dc8165cd9f04a945ccd0ef4b5c"),
    ("8x8 snet poc=4", "60d98c7ce939dd04b14900d5c1e5bdbb"),
    ("8x8 logreg dot_d=2", "f3c67d0c640905c398b358cca681b2fc"),
    ("8x8 logreg dot_d=4", "9ee9b38ae72ef9a54f6b7684240b47de"),
    ("8x8 logreg upd_d=2", "2654049776c3396c76c7d56c6385eb17"),
    ("8x8 logreg upd_d=4", "69f7caf74076d9a0b874d9b1dc357cb7"),
    ("8x8 sgd dot_d=2", "82fc7f0f7182eec9b2daf6c04cbac9e6"),
    ("8x8 sgd dot_d=4", "f1e12a22b9d621ef0d075bb0f8bf27d8"),
    ("8x8 sgd upd_d=2", "0159dd4a28d73ec0b7b4ecf7a3b83d77"),
    ("8x8 sgd upd_d=4", "a00a0dee6a4cc9e0a8e1db2c5e6206bb"),
    ("8x8 kmeans dist_d=2", "9e751e6c1cfc4697e236662c56ba8dbc"),
    ("8x8 kmeans dist_d=4", "a65f4bafcf69c143463ee614ef5962d8"),
    ("8x8 gda b=2", "243370c1d241e47e4bc8b2a2b42e98ad"),
    ("8x8 gda b=4", "fa09320c049095fad22e3475d558fb81"),
    ("8x8 tpchq6 i=2", "e8a693e723055ff5ba0fc24fe24fb4da"),
    ("8x8 tpchq6 i=4", "2a5b44c391c127c5e3ae76612dea7e5a"),
    ("8x8 bs i=2", "66abe6fa4f24e58b2e90203aa7db9d88"),
    ("8x8 bs i=4", "4efb29b2473798034e4cc5314dfebb48"),
    ("8x8 pr v=2", "474078fba3b5197c406c9adb68b30d6f"),
    ("8x8 pr v=4", "7b0c5c423692935c39fb30d6c92ee317"),
    ("8x8 rf n=2", "3d313f42642bb9281b71be691d6c2e2b"),
    ("8x8 rf n=4", "c7f4c3f392180d7c4e9e0b6da320c9db"),
    ("8x8 dotprod i=32", "edeec63ec0230075aa1cbe60d289fc5e"),
    ("8x8 dotprod i=64", "fb4f96fdf748be135cd87935fd8f7388"),
    ("8x8 tpchq6 i=32", "76a9ed81c2e0d2bac6eaa8485b04fd51"),
    ("8x8 tpchq6 i=64", "bf5682541b49154b39b2ee8243c9b308"),
    ("regression branch_arm_token_reduction", "15a656e973de531c2ef35f1e28d65a57"),
    ("regression conditional_copy_rtelm", "6875c61c886a94c6acdca8024d34d47d"),
    ("regression multi_writer_fifo", "343736d077c8d9008fa114f6b957e77f"),
    ("gen 0", "95eff20ec0e0835e5b47f6329d53a99d"),
    ("gen 1", "bb9486decfac078a52ba4eae965ac5f9"),
    ("gen 2", "5cd5e110bb6330a342f35888970e4c48"),
    ("gen 3", "82cbc517354aec25b8f8a4e2fb65ec7a"),
    ("gen 4", "e7694f5575dcf408033442eb578f81a3"),
    ("gen 5", "b1951fcf9ecb2e6702996508afb163bc"),
    ("gen 6", "756ab017a6ae55a612fb1b712a998fb5"),
    ("gen 7", "043df2944786d4a25f1e554a0bf7dbed"),
    ("gen 8", "c59efb25dec2be032c671166a6702264"),
    ("gen 9", "5a00e2d003f5c5eafd1866fad45fa2e9"),
    ("gen 10", "fe52ecf5addc170da6180df46b536af6"),
    ("gen 11", "8dd39f0d4e5d77d592f986af0d84492e"),
    ("gen 12", "7f981f5e2e1706a100a4941efaf302aa"),
    ("gen 13", "0f817ee161dda1a0a54e1ecab8087def"),
    ("gen 14", "247c5d39538f4decb765e5b63d450b17"),
    ("gen 15", "158a6bff94dcb64f7d67501f9b9609e4"),
    ("gen 16", "fe12cbeabce4a0c19c2e1afca9c588b6"),
    ("gen 17", "9fa8d37eb7ece2d5d415e8501500c472"),
    ("gen 18", "9dc750b0cc1f8b86b5d8ebfb3e6b96a5"),
    ("gen 19", "ec4ee41359f4583bf37174dfc49bd98c"),
    ("gen 20", "c3eb842e9ad132c8bac1625f6980cfab"),
    ("gen 21", "092015996282fdcf84032a3e89b6f12c"),
    ("gen 22", "34144e4fd146c780a24f95eeeab4089f"),
    ("gen 23", "b926c700ed202987eb89c0a6ae99eb18"),
    ("gen 24", "b658b052dcddcf70051b13e2c98e3b2f"),
    ("gen 25", "1db1690f282164fe1b22a72039a8a609"),
    ("gen 26", "20b4d3da7bf1f6bf40fed26b7f33e9fc"),
    ("gen 27", "abd5ec2555117124c919ebcb40996143"),
    ("gen 28", "31c5f9686b6d8e3515ba2331e5240aaa"),
    ("gen 29", "e32b5936c8a9432525457dc65230803a"),
    ("gen 30", "cad338dac8798faaa7e79cd2b6337ae9"),
    ("gen 31", "a7a37da277fc82d415b17ba2494343ef"),
    ("gen 32", "be3536d496f3ffe9c09f2e52b9f1c652"),
    ("gen 33", "5557d2846de09fa87bb5fbae68a95a03"),
    ("gen 34", "a39bf5491bd8cd2c418467d32deb4353"),
    ("gen 35", "f4c18b5c1dce39301a32daf2b080af2b"),
    ("gen 36", "7650d8c434eb4f0eeb0a85b3644d6469"),
    ("gen 37", "aa16fbe4d274d21d020e0d4e7761f3be"),
    ("gen 38", "1c8484dcafb96827926d074e5838b188"),
    ("gen 39", "3d295d7b11b739fe33f6e1aa421a8a15"),
    ("gen 40", "a39f5f9374b307fbd1ea0b5b51784a80"),
    ("gen 41", "24c7216b5e5de285c5beafd2532c3d7e"),
    ("gen 42", "9ad88ad69b10b520cb8f2548b8648197"),
    ("gen 43", "1d1f25493daa2e5d6326a1ed5a4fc77e"),
    ("gen 44", "e4297049ffb40fa2dbad883a22c05a39"),
    ("gen 45", "bb9486decfac078a52ba4eae965ac5f9"),
    ("gen 46", "bb9486decfac078a52ba4eae965ac5f9"),
    ("gen 47", "0a4c1a5c3d076a6dc4423a1df0dd14a6"),
    ("gen 48", "558cd3cda1df8d8846124d45c42f9a1f"),
    ("gen 49", "2c245040ff1baf14587b59cdc38006df"),
    ("gen 50", "10185c1af9741f041fd72525a599648f"),
    ("gen 51", "22461cabcd626cb8d6feaa61476e3863"),
    ("gen 52", "9522c7821a7ad058e65a92f44efe74ff"),
    ("gen 53", "f6a5f3d9f530a6a16cf0e1df097facd6"),
    ("gen 54", "9433417a15e25113724760cb037e03a8"),
    ("gen 55", "562c8ecc60947d22ca4f98303959f4c9"),
    ("gen 56", "7256b3883aa36fdd40ea2f78d3acf03a"),
    ("gen 57", "0b2988b7409bc1aef7b1ad3349c00231"),
    ("gen 58", "af5250b15d59f25b873f6f12c532d6e8"),
    ("gen 59", "f438b47ffe8026ddc4071188c6d0ff86"),
    ("gen 60", "cb0f3d93a803b9fc47f6083936bf6fdb"),
    ("gen 61", "624f511e7f6c1fa50ee20b22816cebb6"),
    ("gen 62", "aa951d023190c42b6b4827308c892044"),
    ("gen 63", "d99ef67ff2c1fe01cd0d2906a0791862"),
    ("8x8 three combines", "efd3c71b0112a3a7d00569f5651bf3d8"),
];

/// One case: its name, program, chip and options.
struct Case {
    name: String,
    program: Program,
    chip: ChipSpec,
    opts: CompilerOptions,
}

/// Unit-label prefixes of the wiring the golden must reach.
const REACHED: [&str; 6] = ["xdist:", "xdist-a:", "xcoll:", "xcoll-ack:", "sync:", "combine:"];

/// `p` with the loop named `name` at `par`.
fn with_par(mut p: Program, name: &str, par: u32) -> Program {
    let id = p.loops().into_iter().find(|&l| p.ctrl(l).name == name).expect("loop by name");
    p.set_par(id, par).expect("valid par");
    p
}

/// Every case in table order.
fn cases() -> Vec<Case> {
    let small = ChipSpec::small_8x8;
    let defaults = CompilerOptions::default();
    let mut out = Vec::new();
    for (chip_name, chip) in
        [("8x8", small()), ("20x20", ChipSpec::sara_20x20()), ("4x4", ChipSpec::tiny_4x4())]
    {
        for w in sara_workloads::all_small() {
            out.push(Case {
                name: format!("{chip_name} {}", w.name),
                program: w.program,
                chip: chip.clone(),
                opts: defaults,
            });
        }
    }
    let with = |set: fn(&mut CompilerOptions)| {
        let mut o = defaults;
        set(&mut o);
        o
    };
    let knobs = [
        ("banking off", with(|o| o.lower.banking = false)),
        ("reduce off", with(|o| o.lower.cmmc.reduce = false)),
        ("relax off", with(|o| o.lower.cmmc.relax_credits = false)),
        ("rtelm off", with(|o| o.opt.rtelm = false)),
        ("multibuffer 1", with(|o| o.lower.cmmc.multibuffer = 1)),
    ];
    for (knob, opts) in knobs {
        for w in sara_workloads::all_small() {
            out.push(Case {
                name: format!("8x8 {} {knob}", w.name),
                program: w.program,
                chip: small(),
                opts,
            });
        }
    }
    for w in sara_workloads::all_small() {
        for &l in w.tunable_loops {
            for par in [2, 4] {
                out.push(Case {
                    name: format!("8x8 {} {l}={par}", w.name),
                    program: with_par(w.program.clone(), l, par),
                    chip: small(),
                    opts: defaults,
                });
            }
        }
    }
    for name in ["dotprod", "tpchq6"] {
        for par in [32, 64] {
            let w = sara_workloads::by_name(name).expect("registry workload");
            out.push(Case {
                name: format!("8x8 {name} i={par}"),
                program: with_par(w.program, "i", par),
                chip: small(),
                opts: defaults,
            });
        }
    }
    // The fuzz oracle's settings: 8x8, credits not relaxed unless the
    // case asks for it.
    let fuzz_opts = |relax: bool| {
        let mut o = defaults;
        o.lower.cmmc.relax_credits = relax;
        o
    };
    for (name, text) in [
        (
            "branch_arm_token_reduction",
            include_str!("fuzz_regressions/branch_arm_token_reduction.sara"),
        ),
        ("conditional_copy_rtelm", include_str!("fuzz_regressions/conditional_copy_rtelm.sara")),
        ("multi_writer_fifo", include_str!("fuzz_regressions/multi_writer_fifo.sara")),
    ] {
        out.push(Case {
            name: format!("regression {name}"),
            program: textio::from_text(text).expect("regression program parses"),
            chip: small(),
            opts: fuzz_opts(false),
        });
    }
    for s in GEN_SEEDS {
        let case = gen::generate(s);
        out.push(Case {
            name: format!("gen {s}"),
            program: case.program,
            chip: small(),
            opts: fuzz_opts(case.cfg.relax_credits),
        });
    }
    out.push(Case {
        name: "8x8 three combines".to_string(),
        program: three_combines(),
        chip: small(),
        opts: defaults,
    });
    out
}

/// One loop at `par` 64 feeding three cross-lane reductions, each stored
/// under `is_last`: lowering must finalize the three combine units in
/// the order it created them.
fn three_combines() -> Program {
    let mut p = Program::new("combines");
    let root = p.root();
    let a = p.dram("a", &[256], DType::F64, MemInit::RandomF { seed: 5 });
    let o = p.dram("o", &[3], DType::F64, MemInit::Zero);
    let l = p.add_loop(root, "i", LoopSpec::new(0, 256, 1).par(64)).unwrap();
    let hb = p.add_leaf(l, "sums").unwrap();
    let i = p.idx(hb, l).unwrap();
    let x = p.load(hb, a, &[i]).unwrap();
    let last = p.is_last(hb, l).unwrap();
    for (k, op) in [BinOp::Add, BinOp::Max, BinOp::Min].into_iter().enumerate() {
        let r = p.reduce(hb, op, x, Elem::F64(0.0), l).unwrap();
        let at = p.c_i64(hb, k as i64).unwrap();
        p.store_if(hb, o, &[at], r, last).unwrap();
    }
    p
}

#[test]
fn lowered_designs_match_the_golden_table() {
    let mut got: Vec<(String, String)> = Vec::new();
    let mut reached = [false; REACHED.len()];
    for c in cases() {
        let d = match compile(&c.program, &c.chip, &c.opts) {
            Ok(compiled) => {
                for u in &compiled.vudfg.units {
                    for (seen, prefix) in reached.iter_mut().zip(REACHED) {
                        *seen |= u.label.starts_with(prefix);
                    }
                }
                design_digest(&compiled)
            }
            Err(e) => StableHasher::new().str("err").str(&e.to_string()).hex(),
        };
        got.push((c.name, d));
    }
    for (seen, prefix) in reached.iter().zip(REACHED) {
        assert!(seen, "no case builds a `{prefix}` unit");
    }
    let want: Vec<(String, String)> =
        GOLDEN.iter().map(|(c, d)| (c.to_string(), d.to_string())).collect();
    if got != want {
        let table: String = got.iter().map(|(c, d)| format!("    ({c:?}, {d:?}),\n")).collect();
        panic!("lowered designs moved; the table as it runs now:\n{table}");
    }
}
