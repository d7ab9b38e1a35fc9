//! Smoke tests for the experiment harness: every registered experiment
//! must run end-to-end on a tiny suite and produce a well-formed report
//! with the rows/series its figure needs.

use fdip_harness::{experiments, Runner};
use fdip_program::workload::{Workload, WorkloadFamily};

fn tiny_runner() -> Runner {
    // One small workload, very short runs: exercises every code path
    // without caring about metric quality.
    Runner::new(
        vec![Workload::family_default(
            "spec_a",
            WorkloadFamily::Spec,
            301,
        )],
        2_000,
        10_000,
    )
}

#[test]
fn registry_is_complete_and_unique() {
    let ids: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
    let unique: std::collections::BTreeSet<&&str> = ids.iter().collect();
    assert_eq!(ids.len(), unique.len());
    assert_eq!(ids.len(), 13, "one experiment per paper artifact");
}

#[test]
fn structural_tables_need_no_simulation() {
    let r = tiny_runner();
    let tab3 = (experiments::by_id("tab3").unwrap().run)(&r);
    assert_eq!(tab3.get("total_bytes"), Some(195.0), "Table III headline");
    let tab4 = (experiments::by_id("tab4").unwrap().run)(&r);
    assert_eq!(tab4.get("btb_entries"), Some(8192.0));
    assert!(!tab4.tables.is_empty());
}

#[test]
fn fig7_produces_all_btb_points() {
    let r = tiny_runner();
    let rep = (experiments::by_id("fig7").unwrap().run)(&r);
    for size in ["1K", "2K", "4K", "8K", "16K", "32K"] {
        assert!(
            rep.get(&format!("speedup_{size}_pfc_on")).is_some(),
            "missing {size}"
        );
    }
    assert_eq!(rep.tables[0].rows.len(), 6);
}

#[test]
fn fig8_covers_all_policies() {
    let r = tiny_runner();
    let rep = (experiments::by_id("fig8").unwrap().run)(&r);
    for p in ["THR", "Ideal", "GHR0", "GHR1", "GHR2", "GHR3"] {
        assert!(rep.get(&format!("speedup_{p}_pfc_on")).is_some(), "{p}");
    }
}

#[test]
fn fig13_reports_bandwidth_and_latency_series() {
    let r = tiny_runner();
    let rep = (experiments::by_id("fig13").unwrap().run)(&r);
    assert_eq!(rep.tables.len(), 2, "13a and 13b");
    for k in ["speedup_B6", "speedup_B12", "speedup_B18", "speedup_B18m"] {
        assert!(rep.get(k).is_some(), "{k}");
    }
    for lat in 1..=4 {
        assert!(rep.get(&format!("speedup_btblat{lat}")).is_some());
    }
}

#[test]
fn fig14_reports_exposure_fractions() {
    let r = tiny_runner();
    let rep = (experiments::by_id("fig14").unwrap().run)(&r);
    for e in [2usize, 4, 8, 12, 16, 24, 32] {
        let f = rep
            .get(&format!("exposed_frac_ftq{e}"))
            .unwrap_or_else(|| panic!("missing ftq{e}"));
        assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
    }
    // Exposure must not grow with FTQ depth at the endpoints.
    let f2 = rep.get("exposed_frac_ftq2").unwrap();
    let f32 = rep.get("exposed_frac_ftq32").unwrap();
    assert!(
        f32 <= f2 + 0.05,
        "deep FTQ must not expose more: {f2} -> {f32}"
    );
}

#[test]
fn fig9_reports_all_four_metrics_per_config() {
    let r = tiny_runner();
    let rep = (experiments::by_id("fig9").unwrap().run)(&r);
    for key in ["speedup", "mpki", "starv", "tags"] {
        for cfg in ["8K_BTB", "4K_BTB_EIP_27KB", "4K_BTB"] {
            assert!(rep.get(&format!("{key}_{cfg}")).is_some(), "{key}_{cfg}");
        }
    }
}

#[test]
fn fig1_includes_the_rdip_competitor() {
    let r = tiny_runner();
    let rep = (experiments::by_id("fig1").unwrap().run)(&r);
    // RDIP (the D-JOLT predecessor) rides the limit-study grid with
    // both FTQ depths...
    assert!(rep.get("RDIP_nofdp_pct").is_some());
    assert!(rep.get("RDIP_fdp_pct").is_some());
    assert!(rep.tables[0].rows.iter().any(|row| row[0] == "RDIP"));
    // ...and the column survives into the machine-readable results
    // document (reports carry no volatile fields, so the serialized
    // form *is* the stripped form).
    let json = fdip_telemetry::ToJson::to_json(&rep).to_string();
    assert!(json.contains("\"RDIP_fdp_pct\""), "{json}");
    assert!(json.contains("\"RDIP_nofdp_pct\""), "{json}");
}

#[test]
fn reports_render_to_text() {
    let r = tiny_runner();
    let rep = (experiments::by_id("tab3").unwrap().run)(&r);
    let text = rep.to_string();
    assert!(text.contains("195 bytes"), "{text}");
    assert!(text.contains("Direction hint"), "{text}");
}
