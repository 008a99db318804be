//! Cartesian process topologies.
//!
//! The paper's future work proposes integrating "topology information,
//! for example obtained from instrumented MPI topology routines, into
//! our data model", opening the way for new visualization. A
//! [`CartTopology`] maps processes onto coordinates of a Cartesian grid
//! (like `MPI_Cart_create`); the display renders severity heat over the
//! grid, and the algebra carries topologies through integration.

use crate::error::ModelError;
use crate::ids::ProcessId;

/// A Cartesian process topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CartTopology {
    /// Topology name (e.g. the communicator name).
    pub name: String,
    /// Grid extent per dimension (non-empty, all ≥ 1).
    pub dims: Vec<u32>,
    /// Periodicity per dimension (same length as `dims`).
    pub periodic: Vec<bool>,
    /// Coordinates of processes on the grid, in any order; each entry
    /// maps a process to its coordinate vector (same length as `dims`).
    pub coords: Vec<(ProcessId, Vec<u32>)>,
}

impl CartTopology {
    /// Creates an empty topology over a grid.
    pub fn new(name: impl Into<String>, dims: Vec<u32>, periodic: Vec<bool>) -> Self {
        Self {
            name: name.into(),
            dims,
            periodic,
            coords: Vec::new(),
        }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// The coordinate of a process, if placed.
    pub fn coord_of(&self, p: ProcessId) -> Option<&[u32]> {
        self.coords
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, c)| c.as_slice())
    }

    /// Validates the topology against a process-table size.
    pub fn validate(&self, num_processes: usize) -> Result<(), ModelError> {
        if self.dims.is_empty() || self.dims.contains(&0) {
            return Err(ModelError::BadTopology {
                topology: self.name.clone(),
                reason: "dimensions must be non-empty and positive".into(),
            });
        }
        if self.periodic.len() != self.dims.len() {
            return Err(ModelError::BadTopology {
                topology: self.name.clone(),
                reason: "periodicity vector length must match dimensions".into(),
            });
        }
        let mut seen_proc = std::collections::HashSet::new();
        let mut seen_coord = std::collections::HashSet::new();
        for (p, c) in &self.coords {
            if p.index() >= num_processes {
                return Err(ModelError::BadTopology {
                    topology: self.name.clone(),
                    reason: format!("coordinate refers to nonexistent process {p:?}"),
                });
            }
            if c.len() != self.dims.len() {
                return Err(ModelError::BadTopology {
                    topology: self.name.clone(),
                    reason: format!("coordinate of {p:?} has wrong dimensionality"),
                });
            }
            if c.iter().zip(&self.dims).any(|(&x, &d)| x >= d) {
                return Err(ModelError::BadTopology {
                    topology: self.name.clone(),
                    reason: format!("coordinate of {p:?} outside the grid"),
                });
            }
            if !seen_proc.insert(*p) {
                return Err(ModelError::BadTopology {
                    topology: self.name.clone(),
                    reason: format!("process {p:?} placed twice"),
                });
            }
            if !seen_coord.insert(c.clone()) {
                return Err(ModelError::BadTopology {
                    topology: self.name.clone(),
                    reason: format!("coordinate {c:?} occupied twice"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2x2() -> CartTopology {
        let mut t = CartTopology::new("grid", vec![2, 2], vec![false, false]);
        for (i, (x, y)) in [(0, 0), (1, 0), (0, 1), (1, 1)].iter().enumerate() {
            t.coords.push((ProcessId::new(i as u32), vec![*x, *y]));
        }
        t
    }

    #[test]
    fn valid_grid() {
        let t = grid2x2();
        t.validate(4).unwrap();
        assert_eq!(t.ndims(), 2);
        assert_eq!(t.coord_of(ProcessId::new(2)), Some(&[0u32, 1][..]));
    }

    #[test]
    fn rejects_bad_shapes() {
        let t = CartTopology::new("e", vec![], vec![]);
        assert!(t.validate(1).is_err());
        let t = CartTopology::new("z", vec![0], vec![false]);
        assert!(t.validate(1).is_err());
        let t = CartTopology::new("p", vec![2], vec![]);
        assert!(t.validate(1).is_err());
    }

    #[test]
    fn rejects_bad_coords() {
        let mut t = grid2x2();
        t.coords.push((ProcessId::new(9), vec![0, 0]));
        assert!(t.validate(4).is_err()); // unknown process

        let mut t = grid2x2();
        t.coords[0].1 = vec![5, 0];
        assert!(t.validate(4).is_err()); // outside grid

        let mut t = grid2x2();
        t.coords[1].1 = vec![0]; // wrong dimensionality
        assert!(t.validate(4).is_err());
    }

    #[test]
    fn rejects_duplicates() {
        let mut t = grid2x2();
        t.coords.push((ProcessId::new(0), vec![1, 1]));
        assert!(t.validate(4).is_err()); // process twice (and coord twice)

        let mut t = grid2x2();
        t.coords[3] = (ProcessId::new(3), vec![0, 0]);
        assert!(t.validate(4).is_err()); // coordinate twice
    }

    #[test]
    fn partial_placement_is_allowed() {
        let mut t = CartTopology::new("partial", vec![4, 4], vec![true, false]);
        t.coords.push((ProcessId::new(0), vec![3, 3]));
        t.validate(1).unwrap();
    }
}
