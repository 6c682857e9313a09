//! Symbolic (multiple-valued) covers of an FSM's combinational component.
//!
//! Following KISS/NOVA, the present state is one multiple-valued variable
//! (one part per state) and the output variable carries the 1-hot next state
//! followed by the binary primary outputs. Multiple-valued minimization of
//! this cover groups present states into the *input constraints* that drive
//! the state assignment.

use crate::machine::{Fsm, StateId, Trit};
use espresso::{complement, Cover, Cube, CubeSpace, VarKind};

/// The symbolic cover of an FSM: on-set, don't-care set, and the layout
/// bookkeeping needed to interpret cubes.
#[derive(Debug, Clone)]
pub struct SymbolicCover {
    /// On-set (one cube per transition row, plus nothing else).
    pub on: Cover,
    /// Don't-care set: unspecified transitions and `-` outputs.
    pub dc: Cover,
    /// Index of the present-state multiple-valued variable.
    pub pstate_var: usize,
    /// Number of binary primary inputs (variables `0..inputs`).
    pub inputs: usize,
    /// Number of states (parts of the present-state variable and the
    /// next-state prefix of the output variable).
    pub states: usize,
    /// Number of binary primary outputs (suffix of the output variable).
    pub outputs: usize,
}

impl SymbolicCover {
    /// The cube space shared by `on` and `dc`.
    pub fn space(&self) -> &CubeSpace {
        self.on.space()
    }

    /// The set of states admitted by the present-state field of `cube`
    /// (the *input constraint* the cube induces).
    pub fn present_states(&self, cube: &Cube) -> Vec<StateId> {
        let space = self.space();
        (0..self.states as u32)
            .filter(|&p| cube.has_part(space, self.pstate_var, p))
            .map(|p| StateId(p as usize))
            .collect()
    }

    /// The next states asserted by the output field of `cube`.
    pub fn next_states(&self, cube: &Cube) -> Vec<StateId> {
        let space = self.space();
        let ov = space.output_var().expect("symbolic cover has output var");
        (0..self.states as u32)
            .filter(|&p| cube.has_part(space, ov, p))
            .map(|p| StateId(p as usize))
            .collect()
    }
}

/// Converts input trits into the binary fields of `cube` (variables
/// `0..pattern.len()`).
pub(crate) fn apply_input_pattern(space: &CubeSpace, cube: &mut Cube, pattern: &[Trit]) {
    for (v, t) in pattern.iter().enumerate() {
        match t {
            Trit::Zero => cube.set_part(space, v, 0),
            Trit::One => cube.set_part(space, v, 1),
            Trit::DontCare => cube.set_var_full(space, v),
        }
    }
}

/// Builds the multiple-valued symbolic cover of `fsm`.
///
/// The on-set has one cube per transition: the input pattern, the present
/// state as a 1-of-n literal, and an output field asserting the next state
/// part plus every `1` output. The don't-care set collects `-` outputs and
/// the transitions left unspecified by the table (computed per state by
/// complementing that state's input cubes).
pub fn symbolic_cover(fsm: &Fsm) -> SymbolicCover {
    let n = fsm.num_states();
    let inputs = fsm.num_inputs();
    let outputs = fsm.num_outputs();
    let mut sizes: Vec<u32> = vec![2; inputs];
    let mut kinds: Vec<VarKind> = vec![VarKind::Binary; inputs];
    sizes.push(n as u32);
    kinds.push(VarKind::Multi);
    sizes.push((n + outputs) as u32);
    kinds.push(VarKind::Output);
    let space = CubeSpace::new(&sizes, &kinds);
    let pstate_var = inputs;
    let ov = inputs + 1;

    let mut on = Cover::empty(space.clone());
    let mut dc = Cover::empty(space.clone());

    for t in fsm.transitions() {
        let mut base = Cube::zero(&space);
        apply_input_pattern(&space, &mut base, &t.input);
        base.set_part(&space, pstate_var, t.present.0 as u32);

        let mut on_cube = base.clone();
        on_cube.set_part(&space, ov, t.next.0 as u32);
        let mut dc_cube = base.clone();
        let mut has_dc = false;
        for (o, tr) in t.output.iter().enumerate() {
            match tr {
                Trit::One => on_cube.set_part(&space, ov, (n + o) as u32),
                Trit::DontCare => {
                    dc_cube.set_part(&space, ov, (n + o) as u32);
                    has_dc = true;
                }
                Trit::Zero => {}
            }
        }
        on.push(on_cube);
        if has_dc {
            dc.push(dc_cube);
        }
    }

    // Unspecified (input, state) combinations: everything is a don't care
    // there (including the next state).
    let input_space = CubeSpace::binary(inputs);
    for s in 0..n {
        let mut specified = Cover::empty(input_space.clone());
        for t in fsm.transitions().iter().filter(|t| t.present.0 == s) {
            let mut c = Cube::zero(&input_space);
            apply_input_pattern(&input_space, &mut c, &t.input);
            specified.push(c);
        }
        for hole in complement(&specified).iter() {
            let mut c = Cube::full(&space);
            for v in 0..inputs {
                for p in 0..2 {
                    if !hole.has_part(&input_space, v, p) {
                        c.clear_part(&space, v, p);
                    }
                }
            }
            c.clear_var(&space, pstate_var);
            c.set_part(&space, pstate_var, s as u32);
            // output var stays full: everything is DC here
            dc.push(c);
        }
    }

    SymbolicCover {
        on,
        dc,
        pstate_var,
        inputs,
        states: n,
        outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso::minimize;

    const TOY: &str = "\
.i 2
.o 1
.s 3
00 a a 0
01 a b 0
1- a c 1
-- b a 0
-- c b 1
";

    #[test]
    fn cover_shape() {
        let m = Fsm::parse_kiss(TOY).unwrap();
        let sc = symbolic_cover(&m);
        assert_eq!(sc.on.len(), 5);
        assert_eq!(sc.space().num_vars(), 4); // 2 inputs + pstate + output
        assert_eq!(sc.space().parts(2), 3);
        assert_eq!(sc.space().parts(3), 4); // 3 next states + 1 output
        assert!(sc.dc.is_empty(), "completely specified machine");
    }

    #[test]
    fn present_and_next_state_extraction() {
        let m = Fsm::parse_kiss(TOY).unwrap();
        let sc = symbolic_cover(&m);
        let c = &sc.on.cubes()[2]; // 1- a c 1
        assert_eq!(sc.present_states(c), vec![StateId(0)]);
        assert_eq!(sc.next_states(c), vec![StateId(2)]);
    }

    #[test]
    fn unspecified_inputs_become_dont_cares() {
        let kiss = "\
.i 2
.o 1
.s 2
00 a b 1
-- b a 0
";
        let m = Fsm::parse_kiss(kiss).unwrap();
        let sc = symbolic_cover(&m);
        // state a has inputs 01, 10, 11 unspecified
        assert!(!sc.dc.is_empty());
        let mut dc_minterms = std::collections::BTreeSet::new();
        for c in sc.dc.iter() {
            for x in 0..2u32 {
                for y in 0..2u32 {
                    if c.has_part(sc.space(), 0, x) && c.has_part(sc.space(), 1, y) {
                        dc_minterms.insert((x, y));
                    }
                }
            }
        }
        assert_eq!(dc_minterms.len(), 3);
    }

    #[test]
    fn mv_minimization_groups_states() {
        // Two states that under input 1 go to the same next state with the
        // same output should merge into one cube with a 2-state literal.
        let kiss = "\
.i 1
.o 1
.s 3
1 a c 1
1 b c 1
0 a a 0
0 b b 0
1 c c 0
0 c a 0
";
        let m = Fsm::parse_kiss(kiss).unwrap();
        let id = |name: &str| {
            StateId(
                m.state_names()
                    .iter()
                    .position(|s| s == name)
                    .expect("state exists"),
            )
        };
        let sc = symbolic_cover(&m);
        let min = minimize(&sc.on, &sc.dc);
        let grouped = min.iter().any(|c| {
            let ps = sc.present_states(c);
            ps.contains(&id("a")) && ps.contains(&id("b")) && sc.next_states(c) == vec![id("c")]
        });
        assert!(
            grouped,
            "expected a merged cube for states {{a, b}}:\n{min:?}"
        );
    }
}
