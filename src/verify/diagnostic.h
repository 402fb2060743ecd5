#pragma once

/// \file diagnostic.h
/// The verification layer's vocabulary: diagnostic codes, the
/// structured VerifyDiagnostic record, the VerifyReport container, and
/// the VerifyLevel knob. Deliberately header-light (no IR includes) so
/// core/pipeline.h can embed diagnostics in CompileDiagnostics without
/// pulling the checkers in.
///
/// The checkers themselves live in verify/verify.h; this split mirrors
/// common/error.h vs the code that throws.

#include <string>
#include <vector>

namespace atlas::verify {

/// How much invariant checking the engine performs (SessionConfig::
/// verify_level, CompilePipeline::Config::verify).
///
///  * `off`        — no verifier runs; only the always-on legacy
///                   validators (validate_staging/validate_kernelization)
///                   guard the pipeline.
///  * `boundaries` — structural invariants are checked at every compile
///                   phase hand-off (optimize, canonicalize, stage,
///                   kernelize, program) and at the serve data plane's
///                   QASM ingest. Cheap: O(gates + stages * qubits),
///                   no numerics. The Debug-build default.
///  * `paranoid`   — boundaries plus numeric checks: unitarity of every
///                   constant gate matrix within tolerance, CPTP /
///                   stochasticity of noise models before noisy runs.
enum class VerifyLevel { off = 0, boundaries = 1, paranoid = 2 };

/// Stable lowercase name ("off", "boundaries", "paranoid").
const char* verify_level_name(VerifyLevel level);

/// What went wrong, as a machine-readable class. Codes are append-only:
/// tests and tooling switch on them, so renumbering is a break.
enum class Code {
  // --- Circuit invariants (verify_circuit) ---
  qubit_out_of_range = 0,   ///< gate qubit id ≥ circuit num_qubits
  duplicate_qubit = 1,      ///< one gate lists a qubit twice
  bad_arity = 2,            ///< qubit/param count impossible for the kind
  bad_matrix_shape = 3,     ///< Unitary matrix size != 2^targets square
  nonunitary_matrix = 4,    ///< ||U U† - I|| over tolerance (paranoid)
  dangling_slot = 5,        ///< "$k" slot symbols not dense [0, count)
  // --- Staging invariants (verify_staged) ---
  gate_unstaged = 6,        ///< a gate appears in no stage
  gate_double_staged = 7,   ///< a gate appears in two stages
  stage_order = 8,          ///< dependency runs backwards across stages
  stage_locality = 9,       ///< non-insular qubit not local in its stage
  partition_not_permutation = 10,  ///< partition is not a permutation of
                                   ///< [0, n) with the shape's sizes
  // --- Plan invariants (verify_plan) ---
  stage_subcircuit_mismatch = 11,  ///< subcircuit vs original_indices
  kernel_coverage = 12,     ///< kernels drop or double-cover a gate
  kernel_qubits = 13,       ///< kernel qubit union != member gates' union
  // --- Compiled-handle invariants (verify_compiled) ---
  slot_table_mismatch = 14, ///< slot table vs plan slot symbols disagree
  symbol_unbound = 15,      ///< slot expression uses a symbol the handle
                            ///< does not expose
  // --- Stage-program invariants (verify_stage_program) ---
  gather_not_bijective = 16,  ///< shm gather/scatter table repeats or
                              ///< exceeds shard bounds
  variant_count = 17,         ///< kernel variants != 2^|pattern_bits|
  pattern_bits_invalid = 18,  ///< pattern bit ids unsorted or negative
  // --- Noise invariants (verify_noise_model / verify_kraus_ops) ---
  non_cptp = 19,            ///< sum K†K deviates from I over tolerance
  kraus_shape = 20,         ///< Kraus operator not square 2^arity
  readout_not_stochastic = 21,  ///< confusion row outside [0, 1]
  // --- Stage-program invariants, continued ---
  shm_runs_invalid = 22,  ///< shm active bits do not start with 0-2, or
                          ///< the offset table breaks the 8-amp runs
};

/// Stable lowercase name of `code` ("qubit_out_of_range", ...).
const char* code_name(Code code);

/// One violated invariant, located as precisely as the checked object
/// allows. `gate`, `stage`, and `kernel` are -1 when not applicable.
struct VerifyDiagnostic {
  Code code = Code::qubit_out_of_range;
  std::string message;
  int gate = -1;    ///< gate index (circuit- or subcircuit-relative)
  int stage = -1;   ///< stage index within the staged circuit / plan
  int kernel = -1;  ///< kernel index within its stage

  /// "stage 2 kernel 0: gather_not_bijective: ..." rendering.
  std::string to_string() const;
};

/// The outcome of one verifier call: every violated invariant found
/// (the checkers keep going after the first hit so a report names all
/// corruption, not the lexicographically first).
struct VerifyReport {
  std::vector<VerifyDiagnostic> diags;
  /// What was checked, for report rendering ("circuit 'qft_8'", ...).
  std::string subject;

  bool ok() const { return diags.empty(); }
  /// Merges `other` into this report (pipeline phases accumulate).
  void merge(const VerifyReport& other);
  /// Multi-line rendering: one diagnostic per line, subject first.
  std::string to_string() const;
};

}  // namespace atlas::verify
