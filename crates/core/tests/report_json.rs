//! The serialized [`RunReport`] shape that consumers outside the
//! experiment harness read: the harness persists reports into
//! `results/*.json` (pinned byte-for-byte by the golden suite), and
//! `perfbench` splits simulated latency per stage by reading the
//! report's `bd_sum` object through `serde_json::to_value`.

use triplea_core::{Array, ArrayConfig, IoOp, ManagementMode, Trace, TraceRequest};
use triplea_ftl::LogicalPage;
use triplea_sim::SimTime;

/// The seven `Breakdown` stages, in declaration order.
const STAGES: [&str; 7] = [
    "rc_stall",
    "switch_stall",
    "pcie_wait",
    "bus_wait",
    "die_wait",
    "wbuf_wait",
    "fimm_service",
];

#[test]
fn report_json_carries_bd_sum_stage_integers() {
    let trace: Trace = (0..600)
        .map(|i| {
            TraceRequest::new(
                SimTime::from_us(i / 4),
                if i % 5 == 0 { IoOp::Write } else { IoOp::Read },
                LogicalPage((i % 64) * 8),
                1,
            )
        })
        .collect();
    let report = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
    assert!(report.completed() > 0, "run produced traffic");

    let value = serde_json::to_value(&report);
    let bd = value.get("bd_sum").expect("report serializes bd_sum");
    let serde_json::Value::Object(pairs) = bd else {
        panic!("bd_sum is an object, got {bd:?}");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, STAGES, "bd_sum keys");
    for stage in STAGES {
        assert!(
            bd.get(stage).and_then(|v| v.as_u64()).is_some(),
            "bd_sum.{stage} is an unsigned integer, got {:?}",
            bd[stage]
        );
    }
    assert!(
        bd["fimm_service"].as_u64().unwrap() > 0,
        "completed requests spent time in FIMM service"
    );
}

#[test]
fn mode_serializes_as_variant_name() {
    let v = serde_json::to_value(&ManagementMode::Autonomic);
    assert_eq!(v.as_str(), Some("Autonomic"));
    let v = serde_json::to_value(&ManagementMode::NonAutonomic);
    assert_eq!(v.as_str(), Some("NonAutonomic"));
}
