//! Property tests for the netlist substrate: builder invariants,
//! generator guarantees, I/O round trips, and incremental cut tracking.

use np_netlist::components::ModuleComponents;
use np_netlist::generate::{generate, GeneratorConfig};
use np_netlist::io::{parse_hgr, to_hgr_string};
use np_netlist::partition::CutTracker;
use np_netlist::rng::Rng64;
use np_netlist::{Bipartition, HypergraphBuilder, ModuleId, Side};
use np_testkit::{check_cases, Gen};

/// A random string of printable characters (ASCII and a sprinkling of
/// wider Unicode), up to `max_len` chars.
fn arb_text(g: &mut Gen, max_len: usize) -> String {
    let len = g.usize_in(0, max_len);
    (0..len)
        .map(|_| {
            if g.with_probability(0.85) {
                // printable ASCII, including digits and whitespace
                char::from(g.usize_in(0x20, 0x7E) as u8)
            } else if g.flip() {
                '\n'
            } else {
                char::from_u32(g.usize_in(0xA1, 0x2FFF) as u32).unwrap_or('¤')
            }
        })
        .collect()
}

#[test]
fn builder_sorts_and_dedups() {
    check_cases(128, 0x4E01, |g| {
        let pins = g.vec_with(1, 15, |g| g.usize_in(0, 19) as u32);
        let mut b = HypergraphBuilder::new(20);
        let id = b.add_net(pins.iter().copied().map(ModuleId)).unwrap();
        let hg = b.finish().unwrap();
        let stored = hg.pins(id);
        assert!(stored.windows(2).all(|w| w[0] < w[1]));
        let mut expect: Vec<u32> = pins.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(stored.len(), expect.len());
    });
}

#[test]
fn generator_invariants() {
    check_cases(48, 0x4E02, |g| {
        let modules = g.usize_in(10, 199);
        let extra = g.usize_in(0, 49);
        let seed = g.u64_below(500);
        let cfg = GeneratorConfig::new(modules, modules + extra, seed);
        let hg = generate(&cfg);
        assert_eq!(hg.num_modules(), modules);
        assert!(hg.num_nets() >= cfg.nets);
        assert!(ModuleComponents::compute(&hg).is_connected());
        // every net is within bounds and non-trivial
        for n in hg.nets() {
            assert!(hg.net_size(n) >= 2);
        }
    });
}

#[test]
fn generator_with_satellite_invariants() {
    check_cases(24, 0x4E03, |g| {
        let seed = g.u64_below(200);
        let cfg = GeneratorConfig::new(120, 140, seed)
            .with_satellite(0.15, 2)
            .with_global_nets(3, (20, 40));
        let hg = generate(&cfg);
        assert_eq!(hg.num_modules(), 120);
        assert!(ModuleComponents::compute(&hg).is_connected());
        assert!(hg.max_net_size() <= 40);
    });
}

#[test]
fn hgr_roundtrip_random() {
    check_cases(48, 0x4E04, |g| {
        let modules = g.usize_in(5, 59);
        let seed = g.u64_below(300);
        let hg = generate(&GeneratorConfig::new(modules, modules + 5, seed));
        let back = parse_hgr(&to_hgr_string(&hg)).unwrap();
        assert_eq!(hg, back);
    });
}

#[test]
fn cut_tracker_random_walk_consistency() {
    check_cases(96, 0x4E05, |g| {
        let seed = g.u64_below(500);
        let steps = g.usize_in(1, 59);
        let hg = generate(&GeneratorConfig::new(40, 50, seed));
        let mut rng = Rng64::new(seed ^ 0xDEAD);
        let mut tracker = CutTracker::all_on(&hg, Side::Left);
        for _ in 0..steps {
            let m = ModuleId(rng.gen_range(40) as u32);
            let side = if rng.gen_bool(0.5) {
                Side::Left
            } else {
                Side::Right
            };
            tracker.move_module(m, side);
        }
        let scratch = tracker.to_partition().cut_stats(&hg);
        assert_eq!(tracker.stats(), scratch);
    });
}

#[test]
fn gains_sum_rule() {
    check_cases(48, 0x4E06, |g| {
        // moving a module and moving it back restores the exact state
        let seed = g.u64_below(300);
        let hg = generate(&GeneratorConfig::new(30, 40, seed));
        let p = Bipartition::from_left_set(30, (0..15u32).map(ModuleId));
        let mut tracker = CutTracker::from_partition(&hg, &p);
        let before = tracker.stats();
        for m in hg.modules() {
            let side = tracker.side(m);
            tracker.move_module(m, side.flip());
            tracker.move_module(m, side);
        }
        assert_eq!(tracker.stats(), before);
    });
}

#[test]
fn rng_streams_reproducible() {
    check_cases(64, 0x4E07, |g| {
        let seed = g.u64_below(10_000);
        let mut a = Rng64::new(seed);
        let mut b = Rng64::new(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    });
}

#[test]
fn sample_distinct_always_distinct() {
    check_cases(128, 0x4E08, |g| {
        let n = g.usize_in(1, 49);
        let seed = g.u64_below(1000);
        let mut rng = Rng64::new(seed);
        let k = 1 + (seed as usize % n);
        let s = rng.sample_distinct(n, k);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), k);
        assert!(s.iter().all(|&x| x < n));
    });
}

// The `.hgr` parser must never panic, whatever bytes arrive — it
// either parses or returns a structured error.

#[test]
fn hgr_parser_never_panics() {
    check_cases(256, 0x4E09, |g| {
        let text = arb_text(g, 200);
        let _ = np_netlist::io::parse_hgr(&text);
    });
}

#[test]
fn hgr_parser_never_panics_on_numeric_soup() {
    check_cases(256, 0x4E0B, |g| {
        let nums = g.vec_with(0, 30, |g| g.usize_in(0, 99));
        let newline_every = g.usize_in(1, 5);
        let mut text = String::new();
        for (i, n) in nums.iter().enumerate() {
            text.push_str(&n.to_string());
            text.push(if (i + 1) % newline_every == 0 {
                '\n'
            } else {
                ' '
            });
        }
        let _ = np_netlist::io::parse_hgr(&text);
    });
}

#[test]
fn hgr_parser_rejects_oversized_headers_without_panicking() {
    // adversarial headers declare counts up to u64 scale; the parser must
    // return an error before attempting the O(count) allocation
    check_cases(128, 0x4E0C, |g| {
        let huge = np_netlist::io::MAX_DECLARED_COUNT as u64 + 1 + g.u64_below(u64::MAX / 2);
        let text = if g.flip() {
            format!("{huge} 4\n1 2\n")
        } else {
            format!("1 {huge}\n1 2\n")
        };
        let err = np_netlist::io::parse_hgr(&text).unwrap_err();
        assert!(
            matches!(err, np_netlist::NetlistError::Parse { .. }),
            "{err}"
        );
    });
}

#[test]
fn hgr_parser_collapses_random_duplicate_pins() {
    check_cases(128, 0x4E0D, |g| {
        let modules = g.usize_in(2, 20);
        // net line with deliberate repetition: each pin drawn with replacement
        let pins = g.vec_with(2, 24, |g| g.usize_in(1, modules));
        let line: Vec<String> = pins.iter().map(|p| p.to_string()).collect();
        let text = format!("1 {modules}\n{}\n", line.join(" "));
        let hg = np_netlist::io::parse_hgr(&text).unwrap();
        let stored = hg.pins(np_netlist::NetId(0));
        let mut expect: Vec<usize> = pins.iter().map(|p| p - 1).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(stored.len(), expect.len());
        assert!(stored.windows(2).all(|w| w[0] < w[1]));
    });
}

#[test]
fn hgr_parser_rejects_truncated_net_sections() {
    check_cases(128, 0x4E0E, |g| {
        let declared = g.usize_in(2, 12);
        let provided = g.usize_in(0, declared - 1);
        let mut text = format!("{declared} 8\n");
        for i in 0..provided {
            text.push_str(&format!("{} {}\n", (i % 8) + 1, ((i + 1) % 8) + 1));
        }
        let err = np_netlist::io::parse_hgr(&text).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("declared {declared} nets")),
            "{err}"
        );
    });
}
