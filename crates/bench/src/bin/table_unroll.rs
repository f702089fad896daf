//! Regenerates the **Sec. IV-A unroll analysis**: per-element instruction
//! budget, Eq. 3 predicted speedup and register demand per unroll factor,
//! plus the modeled kernel-time speedup at the Fig. 12 reference size.
use bench::report::emit;
use bench::tables::inner_loop_budget;
use gravit_core::unroll_advisor::unroll_sweep;
use particle_layouts::Layout;
use simcore::Table;

fn main() {
    let (body, overhead) = inner_loop_budget();
    println!(
        "Rolled inner loop: {body} body + {overhead} overhead = {} instructions/iteration",
        body + overhead
    );
    println!("(paper: \"a little more than 25 instructions including the loop instructions\")\n");

    let rows = unroll_sweep(Layout::SoAoaS, 128, false, 128 * 512);
    let mut t = Table::new(
        "Unroll sweep — SoAoaS force kernel, block 128",
        &["factor", "instrs/element", "Eq.3 speedup", "regs/thread"],
    );
    for r in &rows {
        t.row(vec![
            r.factor.to_string(),
            format!("{:.2}", r.instrs_per_element),
            format!("{:.3}", r.eq3_speedup),
            r.regs.to_string(),
        ]);
    }
    emit(&t, "table_unroll");
    let full = rows.last().unwrap();
    println!(
        "Full unroll: {:.1}% fewer instructions, Eq.3 predicts {:.2}x (paper: ~18% / 1.18x)",
        100.0 * (1.0 - full.instrs_per_element / rows[0].instrs_per_element),
        full.eq3_speedup
    );
}
