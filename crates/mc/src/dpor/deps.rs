//! Vector-clock race detection over a run's footprint sequence.
//!
//! Each executed decision carries a [`Footprint`]; the dependence
//! relation [`Footprint::dependent`] induces the happens-before order
//! of the run (program order within a CPU plus cross-CPU conflict
//! edges). Two dependent transitions **race** when neither is ordered
//! before the other by the *other* edges of the run — i.e. the only
//! thing serializing them is the schedule itself. Exactly these pairs
//! are where DPOR's equivalence classes branch, so the count doubles as
//! a sanity signal for the reduction ("how much genuine concurrency did
//! this program exhibit?") and each pair is surfaced on the flight
//! recorder as [`EventKind::RaceDetected`].

use jungle_memsim::Footprint;
use jungle_obs::sim::{DporStats, FOOTPRINT_KINDS};
use jungle_obs::trace::{self as flight, EventKind};

/// Classify a footprint into an index of
/// [`FOOTPRINT_KINDS`](jungle_obs::sim::FOOTPRINT_KINDS): fences first
/// (they conflict with everything), then transaction boundaries
/// (invocation/response markers), then the data shape (rmw = both
/// reads and writes, else write, else read), with a catch-all for
/// footprints touching nothing.
pub fn footprint_kind(fp: &Footprint) -> usize {
    debug_assert_eq!(FOOTPRINT_KINDS.len(), 6);
    if fp.fence {
        3 // fence
    } else if fp.inv || fp.resp {
        4 // boundary
    } else if !fp.writes.is_empty() && !fp.reads.is_empty() {
        2 // rmw
    } else if !fp.writes.is_empty() {
        1 // write
    } else if !fp.reads.is_empty() {
        0 // read
    } else {
        5 // other
    }
}

/// Detect racing transition pairs in one run's decision sequence and
/// report each on the flight recorder (`a` = earlier decision index,
/// `b` = later). Returns the number of racing pairs.
pub fn count_races(fps: &[Footprint]) -> u64 {
    count_races_impl(fps, |_, _| {})
}

/// [`count_races`] plus attribution: every racing pair is also charged
/// to `stats`' footprint-kind heat table, so `stats.race_total()`
/// grows by exactly the returned count.
pub fn count_races_into(fps: &[Footprint], stats: &mut DporStats) -> u64 {
    count_races_impl(fps, |i, j| {
        stats.note_race(footprint_kind(&fps[i]), footprint_kind(&fps[j]));
    })
}

/// Clocks: `clock[i][c]` counts the cpu-`c` decisions happens-before or
/// equal to decision `i` (so `clock[i][cpu_i]` is `i`'s own 1-based
/// sequence number on its CPU). A dependent cross-CPU pair `(i, j)`
/// races iff dropping the direct edge `i → j` leaves `i` unordered
/// before `j`: the join of the clocks of `j`'s *other* dependent
/// predecessors does not reach `i`.
fn count_races_impl(fps: &[Footprint], mut on_race: impl FnMut(usize, usize)) -> u64 {
    let n = fps.len();
    if n < 2 {
        return 0;
    }
    let width = fps.iter().map(|f| f.cpu + 1).max().unwrap_or(1);
    let mut clocks: Vec<Vec<u64>> = Vec::with_capacity(n);
    let mut races = 0u64;
    for (j, fpj) in fps.iter().enumerate() {
        let deps: Vec<usize> = (0..j).filter(|&i| fps[i].dependent(fpj)).collect();
        for &i in &deps {
            if fps[i].cpu == fpj.cpu {
                continue; // program order, never a race
            }
            let seq_i = clocks[i][fps[i].cpu];
            // Join of every dependent predecessor except i itself: does
            // anything else already order i before j?
            let mut reach = 0u64;
            for &k in &deps {
                if k != i {
                    reach = reach.max(clocks[k][fps[i].cpu]);
                }
            }
            if reach < seq_i {
                races += 1;
                on_race(i, j);
                flight::emit(EventKind::RaceDetected, i as u64, j as u64);
            }
        }
        let mut clock = vec![0u64; width];
        for &i in &deps {
            for (c, v) in clocks[i].iter().enumerate() {
                clock[c] = clock[c].max(*v);
            }
        }
        clock[fpj.cpu] += 1;
        clocks.push(clock);
    }
    races
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(cpu: usize, addr: u32) -> Footprint {
        Footprint {
            writes: [addr].into_iter().collect(),
            ..Footprint::on(cpu)
        }
    }

    #[test]
    fn same_cpu_sequence_never_races() {
        assert_eq!(count_races(&[w(0, 1), w(0, 1), w(0, 2)]), 0);
    }

    #[test]
    fn conflicting_writes_on_two_cpus_race() {
        assert_eq!(count_races(&[w(0, 5), w(1, 5)]), 1);
    }

    #[test]
    fn disjoint_addresses_do_not_race() {
        assert_eq!(count_races(&[w(0, 1), w(1, 2)]), 0);
    }

    #[test]
    fn transitive_order_suppresses_race() {
        // cpu0 writes a; cpu1 writes a (races with the first); cpu1
        // writes a again — ordered after cpu0's write via its own
        // program-order predecessor, so only the first pair races.
        assert_eq!(count_races(&[w(0, 9), w(1, 9), w(1, 9)]), 1);
    }

    #[test]
    fn attribution_total_matches_count_and_kinds() {
        let mut stats = DporStats::default();
        let fps = [w(0, 5), w(1, 5)];
        let races = count_races_into(&fps, &mut stats);
        assert_eq!(races, 1);
        assert_eq!(stats.race_total(), races);
        // Both members are pure writes → heat lands on (write, write).
        assert_eq!(stats.race_heat[1][1], 1);
    }

    #[test]
    fn footprint_kinds_classify_by_shape() {
        let read = Footprint {
            reads: [1].into_iter().collect(),
            ..Footprint::on(0)
        };
        let rmw = Footprint {
            reads: [1].into_iter().collect(),
            writes: [1].into_iter().collect(),
            ..Footprint::on(0)
        };
        let fence = Footprint {
            fence: true,
            writes: [1].into_iter().collect(),
            ..Footprint::on(0)
        };
        let boundary = Footprint {
            inv: true,
            ..Footprint::on(0)
        };
        assert_eq!(footprint_kind(&read), 0);
        assert_eq!(footprint_kind(&w(0, 1)), 1);
        assert_eq!(footprint_kind(&rmw), 2);
        assert_eq!(footprint_kind(&fence), 3, "fence wins over data shape");
        assert_eq!(footprint_kind(&boundary), 4);
        assert_eq!(footprint_kind(&Footprint::on(0)), 5);
    }

    #[test]
    fn mediated_pair_is_not_direct_race() {
        // i=0 (cpu0 w a), k=1 (cpu1 w a, races with 0), j=2 (cpu0 w a):
        // 0→2 is program order; 1→2 is cross-CPU but is it a race?
        // 2's dependent predecessors are {0, 1}. For i=1: join of
        // clocks[0] gives cpu1-component 0 < seq 1 → race. Total: (0,1)
        // and (1,2) race, (0,2) is program order.
        assert_eq!(count_races(&[w(0, 3), w(1, 3), w(0, 3)]), 2);
    }
}
