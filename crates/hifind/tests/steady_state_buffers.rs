//! Steady-state detection reuses its forecast-error buffers: at the
//! paper's configuration every interval after warm-up writes the six
//! reversible-sketch error grids (737,280 cells, 5.9 MB) into the
//! allocations `DetectionCore` made at start-up, and every cell holds what
//! a forecast into freshly allocated grids gives.

use hifind::detector::ErrorGrids;
use hifind::{DetectionCore, HiFindConfig, SketchRecorder};
use hifind_flow::{Ip4, Packet};
use hifind_forecast::GridEwma;
use hifind_sketch::CounterGrid;

fn six(e: &ErrorGrids) -> [&CounterGrid; 6] {
    [
        &e.rs_sip_dport,
        &e.rs_sip_dport_verifier,
        &e.rs_dip_dport,
        &e.rs_dip_dport_verifier,
        &e.rs_sip_dip,
        &e.rs_sip_dip_verifier,
    ]
}

#[test]
fn steady_state_intervals_rewrite_the_same_error_grids() {
    let cfg = HiFindConfig::paper(7);
    let mut rec = SketchRecorder::new(&cfg).unwrap();
    let mut core = DetectionCore::new(cfg).unwrap();
    let mut reference: [GridEwma; 6] = std::array::from_fn(|_| GridEwma::new(cfg.ewma_alpha));
    let addresses = |core: &DetectionCore| six(core.error_grids()).map(|g| g.stage(0).as_ptr());
    let start = addresses(&core);
    let server: Ip4 = [129, 105, 0, 10].into();
    let mut forecasts = 0;
    for iv in 0..5u64 {
        // Quiet traffic: answered handshakes whose clients shift each
        // interval, so every interval's error grids differ from the last.
        for i in 0..200u32 {
            let client = Ip4::new(0x0909_0000 + i * 7 + iv as u32);
            let ts = iv * cfg.interval_ms + u64::from(i);
            rec.record(&Packet::syn(ts, client, 4000 + i as u16, server, 80));
            rec.record(&Packet::syn_ack(
                ts + 1,
                client,
                4000 + i as u16,
                server,
                80,
            ));
        }
        let snap = rec.take_snapshot();
        core.process_snapshot(&snap);
        let observed = snap.grids();
        for ((model, g), got) in reference
            .iter_mut()
            .zip(observed)
            .zip(six(core.error_grids()))
        {
            let mut want = CounterGrid::new(g.stages(), g.buckets());
            if model.step(g, &mut want) {
                assert_eq!(got, &want, "interval {iv}");
                forecasts += 1;
            }
        }
        assert_eq!(
            addresses(&core),
            start,
            "interval {iv} reallocated an error grid"
        );
    }
    assert_eq!(forecasts, 4 * 6, "every interval after warm-up is forecast");
}
