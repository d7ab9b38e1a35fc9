//! The workload suite: named synthetic workloads in the three families the
//! paper evaluates (server, client, SPEC-like).
//!
//! Family parameters are tuned so the suite reproduces the paper's
//! selection criterion — every workload should show a meaningful IPC
//! uplift with a perfect I-cache over the 32KB baseline — at the scale
//! documented in `DESIGN.md` §2:
//!
//! * **Server**: multi-hundred-KB instruction footprints, thousands of
//!   static branches (stressing 1K–8K-entry BTBs), deep call graphs, a
//!   dispatcher touching the whole footprint.
//! * **Client**: medium footprints, moderate call depth.
//! * **Spec**: loop-dominated, small-to-medium footprints.

use crate::builder::{ProgramBuilder, ProgramParams};
use crate::image::Program;
use std::fmt;

/// Workload family, mirroring the IPC-1 trace categories.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadFamily {
    /// Data-center style: huge instruction footprint, flat profile.
    Server,
    /// Client/interactive style: medium footprint.
    Client,
    /// SPEC-CPU style: loop-dominated, hotter code.
    Spec,
}

impl fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadFamily::Server => "server",
            WorkloadFamily::Client => "client",
            WorkloadFamily::Spec => "spec",
        };
        f.write_str(s)
    }
}

impl WorkloadFamily {
    /// Default generator parameters for this family.
    pub fn default_params(self, seed: u64) -> ProgramParams {
        match self {
            WorkloadFamily::Server => ProgramParams {
                seed,
                num_funcs: 4200,
                blocks_per_func: (4, 12),
                instrs_per_block: (4, 10),
                call_levels: 5,
                cond_fraction: 0.45,
                call_fraction: 0.22,
                jump_fraction: 0.08,
                indirect_jump_fraction: 0.05,
                indirect_call_fraction: 0.20,
                strongly_biased_fraction: 0.78,
                loop_fraction: 0.08,
                pattern_fraction: 0.12,
                loop_trip: (3, 16),
                mem_fraction: 0.35,
                dispatcher_fanout: 384,
            },
            WorkloadFamily::Client => ProgramParams {
                seed,
                num_funcs: 800,
                blocks_per_func: (4, 10),
                instrs_per_block: (4, 9),
                call_levels: 4,
                cond_fraction: 0.48,
                call_fraction: 0.18,
                jump_fraction: 0.07,
                indirect_jump_fraction: 0.04,
                indirect_call_fraction: 0.12,
                strongly_biased_fraction: 0.72,
                loop_fraction: 0.14,
                pattern_fraction: 0.15,
                loop_trip: (3, 24),
                mem_fraction: 0.35,
                dispatcher_fanout: 128,
            },
            WorkloadFamily::Spec => ProgramParams {
                seed,
                num_funcs: 680,
                blocks_per_func: (3, 9),
                instrs_per_block: (4, 9),
                call_levels: 3,
                cond_fraction: 0.5,
                call_fraction: 0.18,
                jump_fraction: 0.06,
                indirect_jump_fraction: 0.03,
                indirect_call_fraction: 0.08,
                strongly_biased_fraction: 0.65,
                loop_fraction: 0.28,
                pattern_fraction: 0.18,
                loop_trip: (4, 48),
                mem_fraction: 0.4,
                dispatcher_fanout: 288,
            },
        }
    }
}

/// A named workload: a family, a seed, and generator parameters.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short display name, e.g. `server_a`.
    pub name: String,
    /// Family the parameters were derived from.
    pub family: WorkloadFamily,
    /// Generator parameters (usually the family defaults with a seed).
    pub params: ProgramParams,
}

impl Workload {
    /// Creates a workload with the family's default parameters.
    pub fn family_default(name: impl Into<String>, family: WorkloadFamily, seed: u64) -> Self {
        Workload {
            name: name.into(),
            family,
            params: family.default_params(seed),
        }
    }

    /// Generates the program for this workload.
    pub fn build(&self) -> Program {
        ProgramBuilder::new(self.params.clone()).build(&self.name)
    }
}

/// The default evaluation suite: 10 workloads across the three families,
/// analogous to the paper's IPC-1 server/client/SPEC mix.
pub fn suite() -> Vec<Workload> {
    use WorkloadFamily::*;
    // server_c/_d are medium-footprint servers, mirroring the footprint
    // diversity of the IPC-1 server traces.
    let medium_server = |name: &str, seed| {
        let mut w = Workload::family_default(name, Server, seed);
        w.params.num_funcs = 2200;
        w.params.dispatcher_fanout = 208;
        w
    };
    // Server-heavy mix, mirroring the IPC-1 composition the paper
    // evaluates on (server traces dominate).
    vec![
        Workload::family_default("server_a", Server, 101),
        Workload::family_default("server_b", Server, 102),
        medium_server("server_c", 103),
        medium_server("server_d", 104),
        Workload::family_default("server_e", Server, 105),
        Workload::family_default("server_f", Server, 106),
        Workload::family_default("client_a", Client, 201),
        Workload::family_default("client_b", Client, 202),
        Workload::family_default("spec_a", Spec, 301),
        Workload::family_default("spec_b", Spec, 302),
    ]
}

/// A reduced three-workload suite (one per family) for quick runs, CI, and
/// the Criterion benches.
pub fn quick_suite() -> Vec<Workload> {
    use WorkloadFamily::*;
    vec![
        Workload::family_default("server_a", Server, 101),
        Workload::family_default("client_a", Client, 201),
        Workload::family_default("spec_a", Spec, 301),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn suite_has_ten_unique_names() {
        let s = suite();
        assert_eq!(s.len(), 10);
        let names: BTreeSet<&str> = s.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn families_order_by_footprint() {
        let server = Workload::family_default("s", WorkloadFamily::Server, 1).build();
        let client = Workload::family_default("c", WorkloadFamily::Client, 1).build();
        let spec = Workload::family_default("p", WorkloadFamily::Spec, 1).build();
        assert!(server.image().footprint_bytes() > client.image().footprint_bytes());
        assert!(client.image().footprint_bytes() > spec.image().footprint_bytes());
    }

    #[test]
    fn server_footprint_exceeds_l1i() {
        let server = Workload::family_default("s", WorkloadFamily::Server, 1).build();
        // 32KB L1I must be far too small for a server workload.
        assert!(
            server.image().footprint_bytes() > 8 * 32 * 1024,
            "server footprint only {} bytes",
            server.image().footprint_bytes()
        );
    }

    #[test]
    fn server_branch_count_stresses_small_btbs() {
        let server = Workload::family_default("s", WorkloadFamily::Server, 1).build();
        let branches = server.static_branch_count();
        // Enough static branches to overflow a 1K–4K-entry BTB.
        assert!(branches > 4_000, "only {branches} static branches");
    }

    #[test]
    fn quick_suite_is_one_per_family() {
        let s = quick_suite();
        assert_eq!(s.len(), 3);
        let fams: BTreeSet<String> = s.iter().map(|w| w.family.to_string()).collect();
        assert_eq!(fams.len(), 3);
    }

    #[test]
    fn family_display_names() {
        assert_eq!(WorkloadFamily::Server.to_string(), "server");
        assert_eq!(WorkloadFamily::Client.to_string(), "client");
        assert_eq!(WorkloadFamily::Spec.to_string(), "spec");
    }

    #[test]
    fn workloads_build() {
        for w in quick_suite() {
            let p = w.build();
            assert!(p.image().len() > 500, "{} too small", w.name);
        }
    }
}
