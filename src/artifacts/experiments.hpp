#pragma once

#include "artifacts/registry.hpp"

namespace rss::artifacts {

/// Paper headline artifacts.
[[nodiscard]] Experiment make_fig1_send_stalls_experiment();
[[nodiscard]] Experiment make_tab1_throughput_experiment();

/// Ablations (the abl_* experiments).
[[nodiscard]] Experiment make_abl_aqm_experiment();
[[nodiscard]] Experiment make_abl_ifq_size_experiment();
[[nodiscard]] Experiment make_abl_pid_gains_experiment();
[[nodiscard]] Experiment make_abl_rtt_experiment();
[[nodiscard]] Experiment make_abl_sampling_experiment();
[[nodiscard]] Experiment make_abl_setpoint_experiment();

/// Extensions beyond the paper (the ext_* experiments).
[[nodiscard]] Experiment make_ext_fairness_experiment();
[[nodiscard]] Experiment make_ext_hybrid_fluid_experiment();
[[nodiscard]] Experiment make_ext_modern_cc_experiment();
[[nodiscard]] Experiment make_ext_parkinglot_experiment();
[[nodiscard]] Experiment make_ext_sack_experiment();
[[nodiscard]] Experiment make_ext_specdriven_experiment();
[[nodiscard]] Experiment make_ext_tuning_experiment();
[[nodiscard]] Experiment make_ext_variants_experiment();

/// Register every experiment above with `registry`, in display order.
/// Idempotent: a registry that already holds fig1_send_stalls is left
/// untouched.
void register_builtin_experiments(ExperimentRegistry& registry = ExperimentRegistry::instance());

}  // namespace rss::artifacts
