//! Applying a state encoding: from a symbolic FSM to a binary multi-output
//! PLA cover ready for two-level minimization.

use crate::machine::{Fsm, StateId, Trit};
use crate::symbolic::apply_input_pattern;
use espresso::{complement, Cover, Cube, CubeSpace};
use std::error::Error;
use std::fmt;

/// An assignment of binary codes to the states of an FSM.
///
/// Codes are stored little-endian in a `u64`: bit `b` of `codes[s]` drives
/// state variable `b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoding {
    bits: usize,
    codes: Vec<u64>,
}

/// Error building an [`Encoding`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodingError(String);

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid encoding: {}", self.0)
    }
}

impl Error for EncodingError {}

impl Encoding {
    /// Builds an encoding, checking that codes are distinct and fit in
    /// `bits`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError`] on duplicate or oversized codes.
    pub fn new(bits: usize, codes: Vec<u64>) -> Result<Self, EncodingError> {
        if bits == 0 || bits > 63 {
            return Err(EncodingError(format!("bad code length {bits}")));
        }
        if bits < 64 {
            if let Some(&c) = codes.iter().find(|&&c| c >> bits != 0) {
                return Err(EncodingError(format!(
                    "code {c:#b} does not fit in {bits} bits"
                )));
            }
        }
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != codes.len() {
            return Err(EncodingError("duplicate codes".into()));
        }
        Ok(Encoding { bits, codes })
    }

    /// The 1-hot encoding of `n` states (`n` bits, code `1 << s`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds 63.
    pub fn one_hot(n: usize) -> Self {
        assert!((1..=63).contains(&n), "one-hot supports 1..=63 states");
        Encoding {
            bits: n,
            codes: (0..n).map(|s| 1u64 << s).collect(),
        }
    }

    /// Code length in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The code of state `s`.
    pub fn code(&self, s: StateId) -> u64 {
        self.codes[s.0]
    }

    /// All codes, indexed by state.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }

    /// Number of encoded states.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no states are encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// The encoded combinational component of an FSM: a binary multi-output PLA
/// with inputs `(primary inputs, state bits)` and outputs
/// `(next-state bits, primary outputs)`.
#[derive(Debug, Clone)]
pub struct EncodedPla {
    /// On-set.
    pub on: Cover,
    /// Don't-care set (dash outputs, unused codes, unspecified transitions).
    pub dc: Cover,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of state bits.
    pub state_bits: usize,
    /// Number of primary outputs.
    pub outputs: usize,
}

impl EncodedPla {
    /// PLA area of this cover at the given product-term count, using the
    /// paper's formula.
    pub fn area_for(&self, cubes: usize) -> u64 {
        crate::area::pla_area(self.inputs, self.state_bits, self.outputs, cubes)
    }
}

fn set_state_code(space: &CubeSpace, cube: &mut Cube, base: usize, bits: usize, code: u64) {
    for b in 0..bits {
        let part = (code >> b & 1) as u32;
        cube.set_part(space, base + b, part);
    }
}

/// Encodes `fsm` with `enc`, producing the binary PLA covers.
///
/// Unused state codes and unspecified (input, state) combinations become
/// global don't cares; `-` outputs become per-row output don't cares.
///
/// # Panics
///
/// Panics if the encoding does not cover every state of the machine.
pub fn encode(fsm: &Fsm, enc: &Encoding) -> EncodedPla {
    assert_eq!(
        enc.len(),
        fsm.num_states(),
        "encoding must assign a code to every state"
    );
    let inputs = fsm.num_inputs();
    let bits = enc.bits();
    let outputs = fsm.num_outputs();
    let n = fsm.num_states();
    let space = CubeSpace::binary_with_output(inputs + bits, bits + outputs);
    let ov = space.output_var().expect("has output var");

    let mut on = Cover::empty(space.clone());
    let mut dc = Cover::empty(space.clone());

    for t in fsm.transitions() {
        let mut base = Cube::zero(&space);
        apply_input_pattern(&space, &mut base, &t.input);
        set_state_code(&space, &mut base, inputs, bits, enc.code(t.present));

        let mut on_cube = base.clone();
        let next_code = enc.code(t.next);
        for b in 0..bits {
            if next_code >> b & 1 == 1 {
                on_cube.set_part(&space, ov, b as u32);
            }
        }
        let mut dc_cube = base.clone();
        let mut has_dc = false;
        for (o, tr) in t.output.iter().enumerate() {
            match tr {
                Trit::One => on_cube.set_part(&space, ov, (bits + o) as u32),
                Trit::DontCare => {
                    dc_cube.set_part(&space, ov, (bits + o) as u32);
                    has_dc = true;
                }
                Trit::Zero => {}
            }
        }
        if !on_cube.var_is_empty(&space, ov) {
            on.push(on_cube);
        }
        if has_dc {
            dc.push(dc_cube);
        }
    }

    // Unused codes: everything is don't-care there. Computed as the
    // complement of the used-code minterms over the state-bit subspace
    // (compact even for 1-hot encodings of large machines).
    let code_space = CubeSpace::binary(bits);
    let mut used = Cover::empty(code_space.clone());
    for &code in enc.codes() {
        let mut c = Cube::zero(&code_space);
        for b in 0..bits {
            c.set_part(&code_space, b, (code >> b & 1) as u32);
        }
        used.push(c);
    }
    for hole in complement(&used).iter() {
        let mut c = Cube::full(&space);
        for b in 0..bits {
            let v = inputs + b;
            for p in 0..2 {
                if !hole.has_part(&code_space, b, p) {
                    c.clear_part(&space, v, p);
                }
            }
        }
        dc.push(c);
    }

    // Unspecified inputs per state.
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
            for b in 0..bits {
                let v = inputs + b;
                c.clear_var(&space, v);
                c.set_part(&space, v, (enc.code(StateId(s)) >> b & 1) as u32);
            }
            dc.push(c);
        }
    }

    EncodedPla {
        on,
        dc,
        inputs,
        state_bits: bits,
        outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso::minimize;

    const TOY: &str = "\
.i 1
.o 1
.s 2
0 a a 0
1 a b 0
- b a 1
";

    #[test]
    fn encoding_validation() {
        assert!(Encoding::new(2, vec![0, 1, 2]).is_ok());
        assert!(Encoding::new(1, vec![0, 1, 2]).is_err()); // 2 doesn't fit
        assert!(Encoding::new(2, vec![1, 1]).is_err()); // duplicate
        assert!(Encoding::new(0, vec![]).is_err());
    }

    #[test]
    fn one_hot_codes() {
        let e = Encoding::one_hot(3);
        assert_eq!(e.bits(), 3);
        assert_eq!(e.codes(), &[1, 2, 4]);
    }

    #[test]
    fn encode_shape() {
        let m = Fsm::parse_kiss(TOY).unwrap();
        let e = Encoding::new(1, vec![0, 1]).unwrap();
        let pla = encode(&m, &e);
        assert_eq!(pla.inputs, 1);
        assert_eq!(pla.state_bits, 1);
        assert_eq!(pla.outputs, 1);
        // Row "0 a a 0" asserts nothing (next code 0, output 0): dropped.
        assert_eq!(pla.on.len(), 2);
    }

    #[test]
    fn unused_codes_are_dont_cares() {
        let kiss = "\
.i 1
.o 1
.s 3
- a b 1
- b c 0
- c a 0
";
        let m = Fsm::parse_kiss(kiss).unwrap();
        let e = Encoding::new(2, vec![0b00, 0b01, 0b10]).unwrap();
        let pla = encode(&m, &e);
        // code 0b11 unused -> one full-output DC cube
        assert!(pla
            .dc
            .iter()
            .any(|c| c.var_is_full(pla.dc.space(), pla.dc.space().output_var().unwrap())));
    }

    #[test]
    fn minimized_encoded_cover_is_consistent() {
        let m = Fsm::parse_kiss(TOY).unwrap();
        let e = Encoding::new(1, vec![0, 1]).unwrap();
        let pla = encode(&m, &e);
        let min = minimize(&pla.on, &pla.dc);
        assert!(min.len() <= pla.on.len());
        assert!(espresso::verify_minimized(&min, &pla.on, &pla.dc));
    }

    #[test]
    fn area_formula_hookup() {
        let m = Fsm::parse_kiss(TOY).unwrap();
        let e = Encoding::new(1, vec![0, 1]).unwrap();
        let pla = encode(&m, &e);
        // (2*(1+1) + 1 + 1) * 10 = 60
        assert_eq!(pla.area_for(10), 60);
    }
}
