//! Logistics audit scenario: a shipper reconciles a month of routing
//! invoices from two competing route providers — one honest, one
//! quietly returning approximate (cheaper-to-compute) routes.
//!
//! Both providers serve the same owner-signed network with FULL hints
//! (tiny proofs, ideal for high-volume auditing). The audit verifies
//! every invoice and quantifies the overcharge of the dishonest one.
//!
//! ```sh
//! cargo run --release --example logistics_audit
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::prelude::*;
use spnet_core::provider::ServiceProvider;
use spnet_core::tamper::{apply, Attack};
use spnet_graph::gen::grid_network;
use spnet_graph::workload::make_workload;

fn main() {
    let graph = grid_network(18, 18, 1.2, 555);
    println!(
        "distribution network: {} depots/junctions, {} segments",
        graph.num_nodes(),
        graph.num_edges()
    );

    let mut rng = StdRng::seed_from_u64(555);
    let published = DataOwner::publish(
        &graph,
        &MethodConfig::Full {
            use_floyd_warshall: false,
        },
        &SetupConfig::default(),
        &mut rng,
    );
    println!(
        "owner: FULL distance materialization in {:.2}s",
        published.construction_seconds
    );
    let provider = ServiceProvider::new(published.package);
    let auditor = Client::new(published.public_key);

    let deliveries = make_workload(&graph, 5000.0, 20, 556);
    let mut honest_ok = 0usize;
    let mut fraud_caught = 0usize;
    let mut overcharge = 0.0f64;
    for (i, &(from, to)) in deliveries.pairs.iter().enumerate() {
        let honest = provider.answer(from, to).expect("reachable");
        // Provider A: honest.
        auditor
            .verify(from, to, &honest)
            .expect("honest invoice verifies");
        honest_ok += 1;
        // Provider B: returns a detour on every 3rd delivery.
        if i % 3 == 0 {
            if let Some(padded) = apply(Attack::SuboptimalPath, &graph, &honest) {
                let delta = padded.path.distance - honest.path.distance;
                match auditor.verify(from, to, &padded) {
                    Err(e) => {
                        fraud_caught += 1;
                        overcharge += delta;
                        println!(
                            "delivery {:>2}: padded invoice (+{:.1} units) rejected — {e}",
                            i + 1,
                            delta
                        );
                    }
                    Ok(_) => unreachable!("padded route must not verify"),
                }
            }
        }
    }
    println!(
        "audit: {honest_ok}/{} honest invoices verified, {fraud_caught} padded invoices rejected",
        deliveries.pairs.len()
    );
    println!("billed-but-bogus distance detected: {overcharge:.1} units");
}
