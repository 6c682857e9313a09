//! The correctness oracle: a best encoding counts as verified when its
//! re-minimized PLA has the reported cube count and area and simulates like
//! the symbolic table on seeded input walks from every state.

use fsm::encode::encode;
use fsm::simulate::check_sequence;
use fsm::{Encoding, Fsm, SplitMix64, StateId};

/// Steps per walk.
const WALK: usize = 48;

pub fn verify(m: &Fsm, enc: &Encoding, cubes: usize, area: u64, seed: u64) -> bool {
    let mut pla = encode(m, enc);
    let min = espresso::minimize(&pla.on, &pla.dc);
    if min.len() != cubes || pla.area_for(min.len()) != area {
        return false;
    }
    pla.on = min;
    let mut rng = SplitMix64::new(seed);
    (0..m.num_states()).all(|s| {
        let walk: Vec<Vec<bool>> = (0..WALK)
            .map(|_| (0..m.num_inputs()).map(|_| rng.chance(1, 2)).collect())
            .collect();
        check_sequence(m, enc, &pla, StateId(s), &walk).is_ok()
    })
}
