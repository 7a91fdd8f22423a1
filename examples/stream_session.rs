//! Stream a full session over a synthetic 5G trace with the complete
//! NERVE system, and compare against the no-enhancement baseline.
//!
//! Run: `cargo run --release --example stream_session`

use nerve::abr::qoe::QualityMaps;
use nerve::net::trace::{NetworkKind, NetworkTrace};
use nerve::sim::session::{Scheme, SessionConfig, SessionRunner};

fn main() {
    let trace = NetworkTrace::generate(NetworkKind::FiveG, 2024).downscaled(1.5);
    println!(
        "5G trace: {} s, mean {:.2} Mbps (downscaled per §8.3), loss {:.2}%",
        trace.duration_secs(),
        trace.mean_mbps(),
        trace.loss_rate * 100.0
    );
    let maps = QualityMaps::placeholder(&[512, 1024, 1600, 2640, 4400]);

    for (name, scheme) in [
        ("w/o enhancement", Scheme::without_recovery()),
        ("NERVE (recovery + SR + aware ABR)", Scheme::nerve()),
    ] {
        let mut cfg = SessionConfig::new(trace.clone(), maps.clone(), scheme);
        cfg.chunks = 30;
        let result = SessionRunner::new(cfg).run(None);
        println!("\n--- {name} ---");
        println!("session QoE:        {:.3}", result.qoe);
        println!("rebuffering:        {:.2} s", result.total_rebuffer_secs);
        println!(
            "frames recovered:   {:.1}%",
            result.recovered_fraction * 100.0
        );
        println!("chunk | t(s)  | rung | tput(kbps) | QoE");
        for c in result.chunks.iter().take(10) {
            println!(
                "{:>5} | {:>5.1} | {:>4} | {:>10.0} | {:>6.2}",
                c.start_secs as usize / 4,
                c.start_secs,
                c.rung,
                c.throughput_kbps,
                c.qoe
            );
        }
        println!("  ... ({} chunks total)", result.chunks.len());
    }
}
