//! The sleep-set exploration cursor.
//!
//! [`DporCursor`] drives the simulated machine exactly like
//! [`ExhaustiveCursor`](jungle_memsim::ExhaustiveCursor) — replay a
//! recorded decision prefix, extend it at the frontier, backtrack with
//! [`DporCursor::advance`] — but prunes with **sleep sets**
//! (Godefroid): after a branch of a choice point is fully explored, the
//! branch's action *goes to sleep* at that point together with its
//! observed [`Footprint`]. A sleeping action survives into descendant
//! choice points for as long as every decision taken since is
//! independent of it, and any enabled action found asleep is skipped —
//! re-executing it first could only produce runs Mazurkiewicz-equivalent
//! to runs already explored under the sleeping branch.
//!
//! The cursor therefore executes exactly one run per equivalence class
//! of complete runs — the lexicographically least representative — so
//! the first violating leaf it meets is the same trace brute-force
//! enumeration would have reported first, and verdicts *and* witnesses
//! are unchanged. Nodes whose every enabled action is asleep are cut
//! via [`Scheduler::abort_run`] before executing anything (the machine
//! reports such runs with `aborted == true`).

use jungle_memsim::{Action, Footprint, Scheduler};
use jungle_obs::trace::{self as flight, EventKind};

/// A sleeping transition at one choice point: the encoded action of a
/// fully explored branch together with the footprint it had when
/// executed there. (The machine state at a node is fixed, so the
/// encoding identifies the transition and the footprint is its
/// dependence signature.)
#[derive(Clone, Debug)]
pub struct SleepEntry {
    /// [`Action::encode`] of the slept transition.
    pub action: u64,
    /// The transition's footprint when its branch was explored.
    pub fp: Footprint,
}

fn slept(sleep: &[SleepEntry], action: u64) -> bool {
    sleep.iter().any(|e| e.action == action)
}

/// One choice point on the current exploration path.
#[derive(Clone, Debug)]
struct Node {
    /// Encoded enabled actions (filled on first execution).
    options: Vec<u64>,
    /// Index of the branch currently being explored.
    chosen: usize,
    /// Sleep set at this node: inherited survivors plus entries for
    /// branches already explored here.
    sleep: Vec<SleepEntry>,
    /// Footprint of the chosen action, once observed.
    fp: Option<Footprint>,
    /// Part of a donated prefix: this cursor never advances it (the
    /// node's remaining branches belong to the donor or other items).
    pinned: bool,
    /// Remaining branches were donated to the frontier; locally
    /// exhausted.
    donated: bool,
}

/// Sleep-set DFS cursor over the machine's schedule tree. Implements
/// [`Scheduler`]; drive it exactly like an `ExhaustiveCursor`:
/// `rewind`, run the machine, `advance` until it returns `false`.
#[derive(Clone, Debug, Default)]
pub struct DporCursor {
    stack: Vec<Node>,
    /// Replay position within `stack` for the current run.
    pos: usize,
    /// Next stack index to receive an observed footprint.
    obs: usize,
    /// The current run reached a node with every option asleep.
    blocked: bool,
    /// Sleep set and first branch index for the first frontier node of
    /// a donated work item (consumed on creation of that node).
    base: Option<(Vec<SleepEntry>, usize)>,
    /// Enabled actions skipped because they were asleep.
    pub sleep_skips: u64,
}

impl DporCursor {
    /// A cursor rooted at the top of the schedule tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cursor for a donated subtree: replay `prefix` (decision
    /// indices from the root), then explore the node below it starting
    /// at branch `next` under the given sleep set. The prefix nodes are
    /// pinned — once the subtree is exhausted, [`advance`](Self::advance)
    /// returns `false` instead of backtracking above the donation
    /// point.
    pub fn with_base(prefix: Vec<usize>, sleep: Vec<SleepEntry>, next: usize) -> Self {
        DporCursor {
            stack: prefix
                .into_iter()
                .map(|chosen| Node {
                    options: Vec::new(),
                    chosen,
                    sleep: Vec::new(),
                    fp: None,
                    pinned: true,
                    donated: false,
                })
                .collect(),
            pos: 0,
            obs: 0,
            blocked: false,
            base: Some((sleep, next)),
            sleep_skips: 0,
        }
    }

    /// Reset the replay position for the next run.
    pub fn rewind(&mut self) {
        self.pos = 0;
        self.obs = 0;
        self.blocked = false;
    }

    /// Overwrite `out` with the decision path of the current
    /// exploration position, from the absolute root (donated prefixes
    /// included). Immediately after a run this is the run's full
    /// decision path; immediately after [`advance`](Self::advance) it
    /// is the prefix every subsequent run of this cursor extends. The
    /// caller's buffer is reused, so polling the path once per run
    /// allocates nothing.
    pub fn path_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.stack.iter().map(|n| n.chosen));
    }

    /// Depth (from the absolute root, donated prefixes included) of the
    /// node the current run blocked at, or `None` if the run was not
    /// sleep-blocked. Read this after a run and before
    /// [`advance`](Self::advance) — advancing pops the blocked node.
    pub fn blocked_depth(&self) -> Option<usize> {
        if self.blocked {
            Some(self.stack.len().saturating_sub(1))
        } else {
            None
        }
    }

    /// Advance to the next unexplored branch in DFS order, putting each
    /// completed branch to sleep at its node. Returns `false` when the
    /// cursor's subtree is exhausted.
    pub fn advance(&mut self) -> bool {
        if self.blocked {
            // The blocked node explored nothing: every option was
            // already asleep, so it has no footprint and sleeps nothing.
            self.blocked = false;
            self.stack.pop();
        }
        while let Some(mut node) = self.stack.pop() {
            if node.pinned {
                return false; // donated subtree exhausted
            }
            if !node.donated {
                // The branch just completed joins the sleep set: any
                // sibling explored after it may skip re-entering it.
                if let Some(fp) = node.fp.take() {
                    node.sleep.push(SleepEntry {
                        action: node.options[node.chosen],
                        fp,
                    });
                }
                let depth = self.stack.len();
                let mut next = node.chosen + 1;
                while next < node.options.len() {
                    if slept(&node.sleep, node.options[next]) {
                        self.sleep_skips += 1;
                        flight::emit(EventKind::SleepSetSkip, depth as u64, node.options[next]);
                        next += 1;
                    } else {
                        node.chosen = next;
                        node.fp = None;
                        self.stack.push(node);
                        return true;
                    }
                }
            }
            // Exhausted (or donated away): keep popping.
        }
        false
    }

    /// Donate the shallowest splittable choice point to a work-stealing
    /// frontier: returns `(prefix, sleep, next)` describing every
    /// not-yet-explored branch of that node (the receiving cursor is
    /// built with [`DporCursor::with_base`]), and marks the node
    /// donated so this cursor never explores those branches itself.
    ///
    /// The donated sleep set is the node's current one plus an entry
    /// for the in-progress branch — exactly the state serial
    /// exploration would reach when that branch completes, so the
    /// donated subtree is explored identically wherever it runs.
    pub fn split_shallowest(&mut self) -> Option<(Vec<usize>, Vec<SleepEntry>, usize)> {
        for d in 0..self.stack.len() {
            let node = &self.stack[d];
            if node.pinned || node.donated {
                continue;
            }
            let Some(fp) = node.fp.clone() else {
                continue; // branch not yet executed; nothing to reason from
            };
            let mut sleep = node.sleep.clone();
            sleep.push(SleepEntry {
                action: node.options[node.chosen],
                fp,
            });
            let next = node.chosen + 1;
            if !(next..node.options.len()).any(|i| !slept(&sleep, node.options[i])) {
                continue; // every remaining sibling is asleep
            }
            let prefix: Vec<usize> = self.stack[..d].iter().map(|n| n.chosen).collect();
            self.stack[d].donated = true;
            return Some((prefix, sleep, next));
        }
        None
    }
}

impl Scheduler for DporCursor {
    fn choose(&mut self, actions: &[Action]) -> usize {
        if self.pos < self.stack.len() {
            // Replay the recorded prefix. The machine is deterministic,
            // so the offered list matches the one recorded.
            let node = &mut self.stack[self.pos];
            if node.options.is_empty() {
                node.options = actions.iter().map(|a| a.encode()).collect();
            }
            debug_assert_eq!(node.options.len(), actions.len(), "nondeterministic replay");
            self.pos += 1;
            return node.chosen;
        }
        // Frontier: open a new choice point.
        let options: Vec<u64> = actions.iter().map(|a| a.encode()).collect();
        let (sleep, start) = match self.base.take() {
            Some(base) => base,
            None => {
                // Sleeping actions survive past the parent's decision
                // iff they are independent of it.
                let sleep = match self.stack.last() {
                    Some(parent) => {
                        let pfp = parent
                            .fp
                            .as_ref()
                            .expect("parent footprint observed before child choice");
                        parent
                            .sleep
                            .iter()
                            .filter(|e| !e.fp.dependent(pfp))
                            .cloned()
                            .collect()
                    }
                    None => Vec::new(),
                };
                (sleep, 0)
            }
        };
        let depth = self.stack.len();
        let mut chosen = start;
        while chosen < options.len() && slept(&sleep, options[chosen]) {
            self.sleep_skips += 1;
            flight::emit(EventKind::SleepSetSkip, depth as u64, options[chosen]);
            chosen += 1;
        }
        if chosen >= options.len() {
            // Everything enabled is asleep: all behaviors from here are
            // covered by runs already explored. Cut the run (the
            // machine checks abort_run before executing the choice).
            self.blocked = true;
            chosen = 0;
        }
        self.stack.push(Node {
            options,
            chosen,
            sleep,
            fp: None,
            pinned: false,
            donated: false,
        });
        self.pos += 1;
        chosen
    }

    fn observe(&mut self, fp: &Footprint) {
        // One footprint per decision, in decision order; re-runs
        // re-deliver the (identical) prefix footprints.
        debug_assert!(self.obs < self.stack.len(), "footprint without a node");
        self.stack[self.obs].fp = Some(fp.clone());
        self.obs += 1;
    }

    fn abort_run(&self) -> bool {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_w(cpu: usize, addr: u32) -> Footprint {
        Footprint {
            writes: [addr].into_iter().collect(),
            ..Footprint::on(cpu)
        }
    }

    fn path(c: &DporCursor) -> Vec<usize> {
        let mut out = vec![7]; // stale contents must be overwritten
        c.path_into(&mut out);
        out
    }

    #[test]
    fn independent_sleepers_survive_dependent_are_woken() {
        let mut c = DporCursor::new();
        // Root: two actions; explore branch 0 (cpu 0 writes addr 0).
        let acts = [Action::Exec { cpu: 0 }, Action::Exec { cpu: 1 }];
        assert_eq!(c.choose(&acts), 0);
        c.observe(&fp_w(0, 0));
        assert!(c.advance(), "branch 1 remains");
        c.rewind();
        // Replay nothing (root is first): branch 1 now chosen.
        assert_eq!(c.choose(&acts), 1);
        c.observe(&fp_w(1, 1)); // disjoint address: independent of sleeper
                                // Child of branch 1 offers cpu 0's action again — it is asleep
                                // (the sleeping entry survived the independent decision), so
                                // with only that action enabled the node blocks.
        let only_cpu0 = [Action::Exec { cpu: 0 }];
        c.choose(&only_cpu0);
        assert!(c.abort_run(), "sole enabled action is asleep");
        assert!(c.sleep_skips >= 1);
        assert!(!c.advance(), "tree exhausted");
    }

    #[test]
    fn dependent_decision_wakes_sleeper() {
        let mut c = DporCursor::new();
        let acts = [Action::Exec { cpu: 0 }, Action::Exec { cpu: 1 }];
        assert_eq!(c.choose(&acts), 0);
        c.observe(&fp_w(0, 7));
        assert!(c.advance());
        c.rewind();
        assert_eq!(c.choose(&acts), 1);
        c.observe(&fp_w(1, 7)); // same address: dependent → sleeper woken
        let only_cpu0 = [Action::Exec { cpu: 0 }];
        assert_eq!(c.choose(&only_cpu0), 0);
        assert!(!c.abort_run(), "woken action must be re-explored");
    }

    #[test]
    fn path_and_split_round_trip() {
        let mut c = DporCursor::new();
        let acts3 = [
            Action::Exec { cpu: 0 },
            Action::Exec { cpu: 1 },
            Action::Exec { cpu: 2 },
        ];
        assert_eq!(c.choose(&acts3), 0);
        c.observe(&fp_w(0, 0));
        assert_eq!(c.choose(&acts3), 0);
        c.observe(&fp_w(0, 1));
        assert_eq!(path(&c), vec![0, 0]);
        // Donate the root's remaining branches 1..3.
        let (prefix, sleep, next) = c.split_shallowest().expect("root is splittable");
        assert!(prefix.is_empty());
        assert_eq!(next, 1);
        assert_eq!(sleep.len(), 1, "in-progress branch is pre-slept");
        // The donor no longer explores them…
        assert!(c.advance(), "depth-1 siblings remain");
        assert_eq!(path(&c), vec![0, 1]);
        c.rewind();
        // …while a receiving cursor starts exactly there: the donated
        // node IS the root (empty prefix), opened at branch `next`.
        let mut w = DporCursor::with_base(prefix, sleep, next);
        w.rewind();
        assert_eq!(w.choose(&acts3), 1, "starts at the donated branch");
        assert_eq!(path(&w), vec![1]);
    }

    #[test]
    fn with_base_replays_prefix_then_starts_at_next() {
        let acts = [Action::Exec { cpu: 0 }, Action::Exec { cpu: 1 }];
        let mut w = DporCursor::with_base(vec![1], Vec::new(), 1);
        w.rewind();
        assert_eq!(w.choose(&acts), 1, "prefix replayed");
        w.observe(&fp_w(1, 0));
        assert_eq!(w.choose(&acts), 1, "frontier starts at `next`");
        w.observe(&fp_w(0, 1));
        assert_eq!(path(&w), vec![1, 1]);
        // Exhausting the donated node stops at the pinned prefix.
        assert!(!w.advance());
    }
}
