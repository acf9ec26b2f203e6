//! The context-sensitive extension (§1/§7): the same CBS mechanism,
//! recording full stack walks into a calling context tree instead of
//! single edges.
//!
//! ```sh
//! cargo run --release --example context_sensitive
//! ```

use cbs_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program where one helper is called from two different contexts
    // with very different frequencies — invisible to a flat DCG,
    // preserved by the CCT.
    let mut b = ProgramBuilder::new();
    let cls = b.add_class("C", 0);
    let helper = b.function("helper", cls, 1, 0, |c| {
        c.load(0).const_(1).add().ret();
    })?;
    // Both paths call helper *through the same wrapper*: the flat DCG has
    // one wrapper->helper edge and cannot tell the contexts apart.
    let wrapper = b.function("wrapper", cls, 1, 0, |c| {
        c.load(0).call(helper).ret();
    })?;
    let hot_path = b.function("hot_path", cls, 1, 0, |c| {
        c.load(0).call(wrapper).ret();
    })?;
    let cold_path = b.function("cold_path", cls, 1, 0, |c| {
        c.load(0).call(wrapper).ret();
    })?;
    let main = b.function("main", cls, 0, 2, |c| {
        c.counted_loop(0, 400_000, |c| {
            let rare = c.label();
            let done = c.label();
            c.load(0).const_(63).band().jump_if_zero(rare);
            c.load(1).call(hot_path).store(1).jump(done);
            c.bind(rare).load(1).call(cold_path).store(1);
            c.bind(done);
        });
        c.load(1).ret();
    })?;
    b.set_entry(main);
    let program = b.build()?;

    let mut cbs = CounterBasedSampler::new(CbsConfig {
        context_sensitive: true,
        ..CbsConfig::new(3, 16)
    });
    Vm::new(&program, VmConfig::default()).run_with(&mut cbs)?;

    let cct = cbs.cct().expect("context tree enabled");
    println!(
        "flat DCG: {} edges; CCT: {} context nodes, depth {}",
        cbs.dcg().num_edges(),
        cct.num_nodes(),
        cct.max_depth()
    );
    println!("\nhelper's weight by calling context:");
    for (node, step, weight) in cct.iter() {
        if step.method == helper && weight > 0.0 {
            let path: Vec<String> = cct
                .path(node)
                .iter()
                .map(|s| program.method(s.method).name().to_owned())
                .collect();
            println!("  {}: {weight}", path.join(" -> "));
        }
    }
    println!("\nthe flat DCG collapses them into a single edge:");
    for (edge, w) in cbs.dcg().edges_by_weight() {
        if edge.callee == helper {
            println!("  {} -> helper: {w}", program.method(edge.caller).name());
        }
    }
    Ok(())
}
