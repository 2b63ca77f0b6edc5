//! Symbolic gate parameters: the compile-once / rebind-many IR.
//!
//! The paper's whole compile flow — mapping, gate ordering, routing —
//! depends only on the problem graph and the device, never on the QAOA
//! angles (γ, β). Representing angles symbolically lets a circuit be
//! compiled *once* per problem/device pair and re-bound per optimizer
//! iteration at the cost of a per-gate substitution.
//!
//! An [`Angle`] is either a concrete radian value ([`Angle::Const`]) or an
//! affine use `scale · θ_param` of a shared parameter ([`Angle::Sym`]).
//! The affine form is exactly what QAOA needs: the cost layer applies
//! `Rzz(-γ)` / `Rzz(2γJ)` and the mixer `Rx(2β)`, all scalar multiples of
//! the `2p` shared parameters. [`ParamTable`] names a circuit's parameters
//! and [`ParamValues`] supplies one concrete assignment for
//! [`crate::Circuit::bind`].
//!
//! # Examples
//!
//! ```
//! use qcircuit::{Angle, Circuit, ParamValues};
//!
//! let mut c = Circuit::new(2);
//! let gamma = c.declare_param("gamma");
//! let beta = c.declare_param("beta");
//! c.rzz(Angle::sym(gamma).neg(), 0, 1);
//! c.rx(Angle::sym(beta).scaled(2.0), 0);
//! assert!(c.is_parametric());
//!
//! let bound = c.bind(&ParamValues::new(vec![0.4, 0.3]))?;
//! assert!(!bound.is_parametric());
//! # Ok::<(), qcircuit::CircuitError>(())
//! ```

use std::fmt;
use std::sync::Arc;

use crate::CircuitError;

/// Identifies one shared parameter of a circuit (an index into its
/// [`ParamTable`] and into the [`ParamValues`] given to `bind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub u32);

impl ParamId {
    /// The table/values index this id addresses.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A gate angle: concrete radians, or an affine use of a shared parameter.
///
/// `Sym { param, scale }` denotes `scale · θ_param`. The representation is
/// deliberately minimal — QAOA never needs sums of parameters or constant
/// offsets, and keeping `Angle` `Copy` keeps [`crate::Instruction`] `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Angle {
    /// A concrete angle in radians.
    Const(f64),
    /// `scale · θ_param` for a parameter of the circuit's [`ParamTable`].
    Sym {
        /// Which shared parameter.
        param: ParamId,
        /// Scalar multiplier applied on binding.
        scale: f64,
    },
}

impl Angle {
    /// The symbolic angle `1.0 · θ_param`.
    pub fn sym(param: ParamId) -> Angle {
        Angle::Sym { param, scale: 1.0 }
    }

    /// Whether the angle references a parameter (i.e. is not yet bound).
    pub fn is_sym(&self) -> bool {
        matches!(self, Angle::Sym { .. })
    }

    /// The parameter referenced by a symbolic angle.
    pub fn param(&self) -> Option<ParamId> {
        match *self {
            Angle::Const(_) => None,
            Angle::Sym { param, .. } => Some(param),
        }
    }

    /// The concrete value of a bound angle.
    ///
    /// # Panics
    ///
    /// Panics for symbolic angles. Numeric consumers (matrices, simulation
    /// kernels, QASM export) require bound circuits; route through
    /// [`crate::Circuit::bind`] first.
    pub fn value(&self) -> f64 {
        match *self {
            Angle::Const(v) => v,
            Angle::Sym { param, .. } => panic!(
                "angle is symbolic ({param}): bind the circuit before evaluating numerically"
            ),
        }
    }

    /// The angle multiplied by `k` (affine in the parameter, so symbolic
    /// angles stay symbolic).
    pub fn scaled(&self, k: f64) -> Angle {
        match *self {
            Angle::Const(v) => Angle::Const(v * k),
            Angle::Sym { param, scale } => Angle::Sym {
                param,
                scale: scale * k,
            },
        }
    }

    /// The negated angle.
    pub fn neg(&self) -> Angle {
        self.scaled(-1.0)
    }

    /// Substitutes parameter values, producing a concrete angle.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] if the referenced
    /// parameter is not covered by `values`.
    pub fn bind(&self, values: &ParamValues) -> Result<Angle, CircuitError> {
        match *self {
            Angle::Const(v) => Ok(Angle::Const(v)),
            Angle::Sym { param, scale } => match values.get(param) {
                Some(v) => Ok(Angle::Const(scale * v)),
                None => Err(CircuitError::UnboundParameter {
                    param: param.0,
                    provided: values.len(),
                }),
            },
        }
    }
}

impl From<f64> for Angle {
    fn from(v: f64) -> Angle {
        Angle::Const(v)
    }
}

impl From<ParamId> for Angle {
    fn from(param: ParamId) -> Angle {
        Angle::sym(param)
    }
}

impl fmt::Display for Angle {
    /// Constants render exactly like `f64` (honouring any requested
    /// precision, e.g. `{:.4}`); symbolic angles render as `p0`, `2*p0`,
    /// `-1*p0`, with the scale formatted at the same precision.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Angle::Const(v) => v.fmt(f),
            Angle::Sym { param, scale } => {
                if scale == 1.0 {
                    write!(f, "{param}")
                } else {
                    scale.fmt(f)?;
                    write!(f, "*{param}")
                }
            }
        }
    }
}

/// The declared parameters of a circuit: an ordered list of names, indexed
/// by [`ParamId`].
///
/// The names sit behind one shared [`Arc`], copied on write by
/// [`ParamTable::declare`], so every circuit compiled from one program
/// shares its table and a clone is a reference-count bump. An empty table
/// holds no allocation.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ParamTable {
    names: Option<Arc<Vec<String>>>,
}

impl ParamTable {
    /// An empty table.
    pub fn new() -> Self {
        ParamTable::default()
    }

    /// Declares a new parameter, returning its id.
    pub fn declare(&mut self, name: impl Into<String>) -> ParamId {
        let names = Arc::make_mut(self.names.get_or_insert_with(Default::default));
        let id = ParamId(names.len() as u32);
        names.push(name.into());
        id
    }

    /// The declared names in [`ParamId`] order.
    fn names(&self) -> &[String] {
        self.names.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The number of declared parameters.
    pub fn len(&self) -> usize {
        self.names().len()
    }

    /// Whether no parameters are declared.
    pub fn is_empty(&self) -> bool {
        self.names().is_empty()
    }

    /// The name of a parameter, if declared.
    pub fn name(&self, id: ParamId) -> Option<&str> {
        self.names().get(id.index()).map(String::as_str)
    }

    /// Iterates over `(id, name)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str)> {
        self.names()
            .iter()
            .enumerate()
            .map(|(i, n)| (ParamId(i as u32), n.as_str()))
    }

    /// Merges another table into this one for circuit stitching: an empty
    /// side adopts the other, identical tables merge trivially.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ParamTableMismatch`] when both sides declare
    /// parameters and the declarations differ — stitching would silently
    /// alias unrelated parameters.
    pub fn merge(&mut self, other: &ParamTable) -> Result<(), CircuitError> {
        if other.is_empty() || self == other {
            return Ok(());
        }
        if self.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        Err(CircuitError::ParamTableMismatch {
            expected: self.len(),
            found: other.len(),
        })
    }
}

impl fmt::Debug for ParamTable {
    /// Renders the names as a plain list, however they are shared.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParamTable")
            .field("names", &self.names())
            .finish()
    }
}

/// One concrete assignment of values to a circuit's parameters, in
/// [`ParamId`] order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamValues {
    values: Vec<f64>,
}

impl ParamValues {
    /// Wraps a value vector (index `i` binds `ParamId(i)`).
    pub fn new(values: Vec<f64>) -> Self {
        ParamValues { values }
    }

    /// The value bound to `id`, if provided.
    pub fn get(&self, id: ParamId) -> Option<f64> {
        self.values.get(id.index()).copied()
    }

    /// The number of provided values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no values are provided.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values as a slice, in [`ParamId`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

impl From<Vec<f64>> for ParamValues {
    fn from(values: Vec<f64>) -> Self {
        ParamValues::new(values)
    }
}

impl From<&[f64]> for ParamValues {
    fn from(values: &[f64]) -> Self {
        ParamValues::new(values.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_angles_round_trip() {
        let a = Angle::from(0.5);
        assert!(!a.is_sym());
        assert_eq!(a.value(), 0.5);
        assert_eq!(a.scaled(2.0), Angle::Const(1.0));
        assert_eq!(a.neg(), Angle::Const(-0.5));
    }

    #[test]
    fn sym_angles_scale_affinely() {
        let a = Angle::sym(ParamId(3));
        assert!(a.is_sym());
        assert_eq!(a.param(), Some(ParamId(3)));
        let b = a.scaled(2.0).neg();
        assert_eq!(
            b,
            Angle::Sym {
                param: ParamId(3),
                scale: -2.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "symbolic")]
    fn value_panics_on_sym() {
        let _ = Angle::sym(ParamId(0)).value();
    }

    #[test]
    fn bind_substitutes_scaled_value() {
        let vals = ParamValues::new(vec![0.4, 0.3]);
        let a = Angle::sym(ParamId(1)).scaled(2.0);
        assert_eq!(a.bind(&vals), Ok(Angle::Const(0.6)));
        assert_eq!(Angle::Const(1.5).bind(&vals), Ok(Angle::Const(1.5)));
        assert_eq!(
            Angle::sym(ParamId(2)).bind(&vals),
            Err(CircuitError::UnboundParameter {
                param: 2,
                provided: 2
            })
        );
    }

    #[test]
    fn display_honours_precision() {
        assert_eq!(format!("{:.4}", Angle::Const(0.5)), "0.5000");
        assert_eq!(
            format!("{}", Angle::Const(0.123456789012345)),
            "0.123456789012345"
        );
        assert_eq!(format!("{}", Angle::sym(ParamId(0))), "p0");
        assert_eq!(
            format!("{:.2}", Angle::sym(ParamId(1)).scaled(-2.0)),
            "-2.00*p1"
        );
    }

    #[test]
    fn tables_share_names_until_written() {
        let empty = ParamTable::new();
        assert!(empty.names.is_none(), "an empty table must not allocate");
        assert_eq!(format!("{empty:?}"), "ParamTable { names: [] }");

        let mut a = ParamTable::new();
        a.declare("gamma");
        a.declare("beta");
        let shared = a.clone();
        assert!(Arc::ptr_eq(
            a.names.as_ref().unwrap(),
            shared.names.as_ref().unwrap()
        ));
        assert_eq!(
            format!("{shared:?}"),
            r#"ParamTable { names: ["gamma", "beta"] }"#
        );

        // Declaring on a clone copies the names first.
        let mut grown = shared.clone();
        assert_eq!(grown.declare("delta"), ParamId(2));
        assert_eq!((a.len(), shared.len(), grown.len()), (2, 2, 3));
        assert_eq!(a, shared);
        assert_ne!(a, grown);
    }

    #[test]
    fn table_merge_rules() {
        let mut a = ParamTable::new();
        let g = a.declare("gamma");
        let b0 = a.declare("beta");
        assert_eq!((g, b0), (ParamId(0), ParamId(1)));
        assert_eq!(a.name(ParamId(1)), Some("beta"));

        let mut empty = ParamTable::new();
        empty.merge(&a).unwrap();
        assert_eq!(empty, a);

        let mut same = a.clone();
        same.merge(&a).unwrap();
        assert_eq!(same.len(), 2);

        let mut other = ParamTable::new();
        other.declare("x");
        assert!(matches!(
            other.merge(&a),
            Err(CircuitError::ParamTableMismatch { .. })
        ));
    }
}
