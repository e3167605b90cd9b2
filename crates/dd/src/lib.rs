//! Decision-diagram (DD) engine for quantum circuit simulation, with
//! fidelity-controlled approximation.
//!
//! This crate implements the data-structure substrate of the DATE 2021
//! paper *"As Accurate as Needed, as Efficient as Possible: Approximations
//! in DD-based Quantum Circuit Simulation"* (Hillmich, Kueng, Markov,
//! Wille): QMDD-style decision diagrams for quantum states (vector DDs)
//! and operations (matrix DDs), plus the paper's core primitives —
//! per-node **contribution analysis** (Definition 2) and **truncation**
//! (Section IV-A / Equation 1) with an exact fidelity read-out.
//!
//! # Architecture
//!
//! Everything lives inside a [`Package`]: node arenas, unique tables
//! (canonicity), a compute table (memoization of add), a tolerance, and
//! cached identity diagrams. Edges
//! ([`VEdge`], [`MEdge`]) are small copyable handles: a complex weight
//! plus a node id. All operations are methods on [`Package`].
//!
//! * Vector nodes are normalized so the outgoing weight pair has unit
//!   ℓ2-norm and canonical phase. Consequently every node's subtree
//!   represents a *unit-norm* sub-vector, and the contribution of a node
//!   is exactly the accumulated squared path weight from the root — a
//!   single topological pass ([`Package::contributions`]).
//! * Matrix nodes are normalized by their largest-magnitude weight
//!   (QMDD convention).
//! * Edges descend strictly one level at a time; qubit `0` is the lowest
//!   level (least significant bit of a basis index).
//!
//! ## The memory system (hot-path design)
//!
//! The package's storage follows the design of production DD packages
//! (the MQT DDSIM lineage):
//!
//! * **Struct-of-arrays arenas whose payloads never move.** Node
//!   payloads live in fixed chunks of 16 384 slots, each allocated once
//!   and never reallocated (the chunked memory manager of that
//!   lineage), so growing an arena copies nothing and an engine's peak
//!   RSS does not depend on what the allocator did for the engines the
//!   thread ran before, and an arena that fits one chunk is read like
//!   a slice. Reference counts live in parallel chunks and
//!   the `alive`/`mark` GC flags in packed bitsets; the free list is
//!   threaded through the reference counts of the freed slots.
//!   Operation recursion touches only payload bytes; GC mark-clearing
//!   is a memset and the sweep skips 64 dead-free slots per word.
//! * **Per-level open-addressed unique tables.** Canonicalization
//!   queries probe a flat bucket array per level — a 32-bit hash tag
//!   beside the 32-bit node id, 8 bytes a bucket, rebuilt at twice the
//!   live entry count whenever entries plus tombstones pass 70 % — with
//!   linear probing; full key comparisons read the candidate node
//!   straight from the arena. The unique table is **exact** — entries
//!   live as long as their nodes — because it is what makes DDs
//!   canonical.
//! * **A node store that costs what is live.** Garbage collection
//!   unlinks the dead nodes in one sequential scan of each unique
//!   table's buckets and then frees their slots, so a collection
//!   allocates in proportion to what survives (the mark stack), not to
//!   what it frees; and the canonical `add` ratios
//!   sit in a table of bare values (16 bytes a slot) whose keys are
//!   recomputed from the values. GC *timing*, sweep *order* and free-list *order* reach
//!   result bits; table *layout and load factor* never do.
//!   [`PackageStats::node_store_bytes`] reports the footprint by
//!   length.
//! * **One fixed-size, direct-mapped lossy compute table.** `add`
//!   memoizes in a flat slot array indexed by `hash & mask` that
//!   overwrites on collision and invalidates via an O(1) generation
//!   bump. Lossiness is safe by construction: the key identifies its
//!   result exactly — the operand node ids plus the weight ratio
//!   *interned through a canonicalization table* (tolerance bucket →
//!   the first exact ratio seen), and the recursion runs on that
//!   canonical ratio — so near-equal ratios share one key *and* one
//!   result, and a hit returns precisely what recomputation would. An
//!   undersized table costs time, never a different answer. Size it
//!   per package with [`Package::with_config`] (2^16 slots by default).
//! * **Every other operation memoizes per call.** `mul_mv`'s lookups
//!   almost never hit an entry an earlier gate wrote (measured: 5.5 of
//!   59 742 on a memory-driven supremacy item), so [`Package::apply`]
//!   empties a hash map keyed `(m.node, v.node)` and the recursion
//!   memoizes in that: memory in proportion to one call's work instead
//!   of a 2.5 MiB table per package and per pool thread. `mul_mm` and
//!   `inner_product` have one-shot callers, so each call builds a map
//!   of its own. Which calls hit changes, and by hit ≡ recompute
//!   nothing else.
//! * **Table memory is O(touched), not O(capacity).** Packages are
//!   built per job, and a job that never adds two states never consults
//!   the table, so its slot array is provided on the **first insert**
//!   (until then every lookup is a counted miss). A dropped package
//!   retires the array to a **per-thread slot**, and the next package
//!   on that thread takes it over one generation on — every old slot
//!   dead in O(1), the same way a GC clear works — so a pool worker
//!   fills its table once, not once per job. A thread retains at most
//!   one array (2 MiB at the default size) until it exits. Neither
//!   mechanism can change a result or a counter: capacity, index
//!   function, accounting and eviction are untouched, and an
//!   unprovided, a fresh and a recycled table answer every lookup
//!   alike.
//!
//! * **The terminal level computes instead of memoizing.** A level-0
//!   node has only terminal successors, so an operation on it is a
//!   handful of complex multiplications — cheaper than a lookup, an
//!   insert and the eviction the insert causes one level up. `add`,
//!   `mul_mv`, `mul_mm` and `inner_product` skip the table and the
//!   memos there (a third of all lookups on a 16-qubit supremacy run),
//!   which by the hit ≡ recompute argument above cannot move a result.
//! * **Identity × sub-diagram is answered from the node.** Below a
//!   gate's target the operator is the identity, and multiplying by it
//!   rebuilds every state node as it was — except that re-normalising
//!   an already normalised weight pair takes out a factor `1 ± a few
//!   ulps`, so the recursion cannot simply be dropped. But it almost
//!   always finds the very same node under that factor, and which
//!   factor is decidable when the node is built. A matrix node
//!   therefore carries a bit (it is an identity) and a vector node a
//!   byte: its *image*, the ulp distance from 1 of the real factor
//!   under which the identity hands it back — found with the same
//!   `normalize` the recursion runs, fed the successors' own images —
//!   or "none", when a re-normalised weight would cross into another
//!   unique-table bucket. Both are decided where the node is interned
//!   and never changed. Where both are present `Package::mul_mv`
//!   returns the operand under factor × edge weights — the expression
//!   its hit path evaluates — in O(1); the one node in a thousand
//!   without an image takes the recursion as before. The skipped
//!   recursion would have allocated nothing and interned no ratio, so
//!   arena populations, GC timing and results are the same bits
//!   ([`PackageStats::identity_skips`] counts the events).
//! * **A warmed package is forked, not layered.** [`Package::fork`]
//!   deep-copies the node store, the unique tables, the canonical
//!   ratios and the identity cache into a new package with empty
//!   caches. The copied nodes are a pinned prefix that only the
//!   collector and the counters know about: no sweep frees one, new ids
//!   start above it, and a canonical-ratio reset keeps its ratios — so
//!   edges taken from the warmed package stay valid in every fork, and
//!   node reads carry no tier test. The job server forks a warmed
//!   package of gate DDs for each job of a warm session.
//! * **Per-node passes index by slot id, not by hash.** Node ids are
//!   arena slot indices, so [`Package::vsize`] (once per gate under the
//!   memory-driven scheme), [`Package::contributions`] and the
//!   truncation rebuild keep one bit per arena slot for "seen" and
//!   rank the seen ids into plain arrays sized to the reachable set —
//!   no `HashSet`/`HashMap` per call. Summation and node-construction
//!   order are those of the hash-based passes they replaced, so result
//!   bits are too.
//!
//! Results are therefore **bit-identical across every cache
//! configuration** — including across a reset of the canonical-ratio
//! table, which happens only when a *new* bucket finds it full and after
//! which no result computed across the reset is memoized (see the
//! `ratio` module). The workspace's determinism suite
//! (`tests/determinism.rs`) checks a 2-bit against the default table,
//! `package::tests::results_do_not_depend_on_cache_size_across_ratio_resets`
//! does so across ratio resets, and [`PackageStats`] reports the table's hits and misses so
//! regressions in cache behavior show up in benchmark JSON, not just
//! wall time.
//!
//! # Quickstart
//!
//! ```
//! use approxdd_dd::{Package, GateKind};
//!
//! let mut p = Package::new();
//! // |00>  --H(1)-->  --CX(1->0)-->  (|00> + |11>)/sqrt(2)
//! let state = p.basis_state(2, 0);
//! let h = p.single_gate(2, 1, GateKind::H.matrix()).unwrap();
//! let state = p.apply(h, state);
//! let cx = p.controlled_gate(2, &[1], 0, GateKind::X.matrix()).unwrap();
//! let state = p.apply(cx, state);
//!
//! let amps = p.to_amplitudes(state, 2).unwrap();
//! assert!((amps[0].mag2() - 0.5).abs() < 1e-12);
//! assert!((amps[3].mag2() - 0.5).abs() < 1e-12);
//! assert!(amps[1].mag2() < 1e-12 && amps[2].mag2() < 1e-12);
//! ```
//!
//! # Approximation
//!
//! ```
//! use approxdd_dd::Package;
//!
//! let mut p = Package::new();
//! // A skewed superposition: mostly |11>, a little |00>.
//! let amps = [0.2, 0.0, 0.0, 0.979795897113271].map(approxdd_complex::Cplx::real);
//! let state = p.from_amplitudes(&amps).unwrap();
//! // One round with budget 1 − f_round = 0.1: the lowest-contribution
//! // nodes go while their summed contribution stays within 0.1.
//! let result = p.truncate(state, 0.1).unwrap();
//! assert!(result.fidelity >= 0.9);           // guaranteed lower bound
//! assert!(result.size_after <= result.size_before);
//! ```

mod approx;
mod arena;
mod binomial;
mod contribution;
mod ctable;
mod dot;
mod edge;
mod error;
mod fasthash;
mod gates;
mod gc;
mod node;
mod ops;
mod package;
mod ratio;
mod sample;
mod snapshot;
mod unique;
mod visit;

pub use approx::TruncationResult;
pub use contribution::ContributionMap;
pub use edge::{MEdge, NodeId, VEdge};
pub use error::DdError;
pub use gates::GateKind;
pub use gc::GcStats;
pub use package::{Package, PackageStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DdError>;
