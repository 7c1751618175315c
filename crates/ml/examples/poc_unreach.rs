// PoC: checksum-valid .mfpac with an unreachable node whose feature
// index is out of range. from_bytes should refuse it; does it panic?
use mfpa_ml::CompiledEnsemble;

fn main() {
    let leaf: u32 = u32::MAX;
    let mut out: Vec<u8> = Vec::new();
    out.extend(0x4350_464Du32.to_le_bytes()); // magic
    out.extend(2u32.to_le_bytes()); // version
    out.extend(1u64.to_le_bytes()); // n_features
    out.extend(1u64.to_le_bytes()); // n_trees
    out.extend(3u64.to_le_bytes()); // n_nodes
    out.push(0); // RfMean
    out.extend(0u64.to_le_bytes());
    out.extend(0u64.to_le_bytes());
    out.extend(0u32.to_le_bytes()); // tree_roots[0]
    out.extend(0u32.to_le_bytes()); // tree_depths[0]
    for f in [leaf, 5u32, 5u32] {
        out.extend(f.to_le_bytes()); // feat: root leaf + 2 unreachable
    }
    for _ in 0..3 {
        out.extend(0f64.to_bits().to_le_bytes()); // thr
    }
    for _ in 0..3 {
        out.extend(0u32.to_le_bytes()); // left
    }
    for _ in 0..3 {
        out.extend(0f64.to_bits().to_le_bytes()); // value
    }
    let out = mfpa_bytes::seal(out);
    match CompiledEnsemble::from_bytes(&out) {
        Ok(_) => println!("ACCEPTED (bad: invalid structure admitted)"),
        Err(e) => println!("refused: {e}"),
    }
}
