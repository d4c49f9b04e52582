//! # kdash-datagen
//!
//! Synthetic graph generators standing in for the paper's five public
//! datasets (FOLDOC Dictionary, Oregon AS Internet, cond-mat Citation,
//! Epinions Social, EuAll Email). The evaluation harness must run offline,
//! so each dataset is replaced by a generator from the same structural
//! family (see DESIGN.md, *Substitutions*): K-dash's behaviour depends on
//! degree skew, community block structure and reachability — properties
//! these generators reproduce — not on the identities of the original
//! nodes.
//!
//! * [`erdos_renyi`] — directed G(n, m) noise baseline,
//! * [`barabasi_albert`] — preferential attachment (heavy-tailed degrees),
//! * [`watts_strogatz`] — small-world ring lattice with rewiring,
//! * [`planted_partition`] — directed stochastic block model,
//! * [`rmat`] — R-MAT / Kronecker scale-free directed graphs,
//! * [`collaboration`] — Newman-weighted co-authorship cliques,
//! * [`dictionary`] — labelled word web with planted term clusters
//!   (drives the Table 2 case study),
//! * [`DatasetProfile`] — the five paper datasets at a configurable scale.
//!
//! All generators are deterministic given their seed.

#![forbid(unsafe_code)]

pub mod ba;
pub mod collaboration;
pub mod dictionary;
pub mod er;
pub mod profiles;
pub mod rmat;
pub mod sbm;
pub mod util;
pub mod ws;

pub use ba::barabasi_albert;
pub use collaboration::collaboration;
pub use dictionary::{dictionary, DictionaryDataset};
pub use er::erdos_renyi;
pub use profiles::DatasetProfile;
pub use rmat::{rmat, RmatParams};
pub use sbm::{gateway_partition, planted_partition};
pub use ws::watts_strogatz;
