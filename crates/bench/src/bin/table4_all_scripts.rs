//! Regenerates Table 4: u1, u16, T16 for all 70 scripts.

fn main() {
    let scale = kq_workloads::Scale::bench();
    let (ms, _) = kq_bench::measure_corpus(&scale, &[1, 16]);
    kq_bench::tables::print_table4(&ms);
}
