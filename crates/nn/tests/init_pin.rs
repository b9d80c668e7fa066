//! `Mlp::new`'s initial weights, pinned to literals: an FNV-1a hash over
//! every parameter's bits, for the paper's architecture and for two small
//! networks whose layers end mid-block in the ChaCha8 keystream. Whichever
//! path draws the weights (the per-draw loop or a bulk keystream kernel),
//! these hashes must not move.

use surrogate_nn::{InitScheme, Mlp, MlpConfig};

fn params_hash(config: MlpConfig) -> (usize, u64) {
    let params = Mlp::new(config).params_flat();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in params.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (params.len(), hash)
}

#[test]
fn initial_weights_are_pinned() {
    let xavier = MlpConfig {
        init: InitScheme::XavierUniform,
        ..MlpConfig::small(5, 17, 9, 3)
    };
    for (config, expected) in [
        (
            MlpConfig::paper_architecture(576, 7),
            (215_616, 0x418c_447e_7c9d_ba02),
        ),
        (
            MlpConfig::small(6, 24, 13, 11),
            (1_093, 0xbbf2_d879_2206_885e),
        ),
        (xavier, (570, 0xb154_1999_5508_ac9f)),
    ] {
        assert_eq!(params_hash(config.clone()), expected, "{config:?}");
    }
}
