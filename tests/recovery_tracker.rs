//! Property test of the recovery tracker's incremental completion stream.
//!
//! Rank 0 journals completions from `take_newly_completed` — O(new) per batch
//! — while checkpoints keep capturing the full `completed_simulations` scan.
//! The two must never disagree: after every event of any protocol-valid
//! interleaving of receive / consume / evict / finalize over 1–3 ranks, the
//! stream accumulated so far (plus the restored simulations, which are
//! already durable and never announced) is exactly the scan.

use melissa::RecoveryTracker;
use proptest::prelude::*;

const SIMULATIONS: u64 = 4;

/// One sample sitting in some rank's buffer.
struct Buffered {
    simulation: u64,
    step: usize,
    trained: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn newly_completed_stream_accumulates_to_the_full_scan(
        ranks in 1usize..=3,
        restored in 0u64..=1,
        choices in prop::collection::vec(any::<u32>(), 50..400),
    ) {
        // No simulation can receive more samples than there are events.
        let tracker = RecoveryTracker::new(ranks, SIMULATIONS as usize + 1, choices.len());
        // Simulation ids from SIMULATIONS up are restored from a checkpoint.
        let mut accumulated: Vec<u64> = (SIMULATIONS..SIMULATIONS + restored).collect();
        for &simulation in &accumulated {
            tracker.restore_completed(simulation);
        }
        let mut next_step = [0usize; SIMULATIONS as usize];
        let mut finalized = [[false; 3]; SIMULATIONS as usize];
        let mut buffered: Vec<Buffered> = Vec::new();
        // The `pick`-th buffered sample that is (or is not yet) trained.
        let nth = |buffered: &[Buffered], trained: bool, pick: usize| -> Option<usize> {
            let candidates: Vec<usize> = (0..buffered.len())
                .filter(|&i| buffered[i].trained == trained)
                .collect();
            (!candidates.is_empty()).then(|| candidates[pick % candidates.len()])
        };

        for choice in choices {
            // Untrained drops are kept rare: each pins its simulation
            // incomplete for good, and most cases should see completions.
            let kind = choice % 16;
            let simulation = u64::from(choice / 16) % SIMULATIONS;
            let pick = (choice / 64) as usize;
            let sim = simulation as usize;
            match kind {
                // A rank that has not seen the finalize yet accepts a sample.
                0..=4 if !finalized[sim][pick % ranks] => {
                    tracker.record_received(simulation, 1);
                    buffered.push(Buffered { simulation, step: next_step[sim], trained: false });
                    next_step[sim] += 1;
                }
                // Any buffered sample is served, possibly again (Reservoir).
                5..=10 if !buffered.is_empty() => {
                    let index = pick % buffered.len();
                    let sample = &mut buffered[index];
                    sample.trained = true;
                    tracker.record_consumed(&[(sample.simulation, sample.step)]);
                }
                // The Reservoir evicts a sample it has already served …
                11 => if let Some(index) = nth(&buffered, true, pick) {
                    let sample = buffered.swap_remove(index);
                    tracker.record_evicted(sample.simulation, true);
                },
                // … and a crash shutdown drops one that never was.
                12 => if let Some(index) = nth(&buffered, false, pick) {
                    let sample = buffered.swap_remove(index);
                    tracker.record_evicted(sample.simulation, false);
                },
                13..=15 if !finalized[sim][pick % ranks] => {
                    finalized[sim][pick % ranks] = true;
                    tracker.record_finalized(simulation);
                }
                _ => {}
            }
            let before = accumulated.len();
            tracker.take_newly_completed(&mut accumulated);
            for announced in &accumulated[before..] {
                prop_assert!(
                    !accumulated[..before].contains(announced),
                    "simulation {announced} announced twice"
                );
            }
            let mut sorted = accumulated.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, tracker.completed_simulations());
        }
    }
}
