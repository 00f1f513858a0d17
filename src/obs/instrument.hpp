// Instrumentation entry points for hot paths. Each macro caches the
// registry lookup in a function-local static, so the steady-state cost of a
// counter update is one relaxed atomic add. When the build disables
// observability (cmake -DFBT_OBS=OFF, which defines FBT_OBS_ENABLED=0) every
// macro expands to a no-op that evaluates none of its arguments.
//
// Metric names must be string literals following `layer.noun_verb`
// (e.g. "sim.seqsim_gates_evaluated"); see DESIGN.md "Observability".
#pragma once

#ifndef FBT_OBS_ENABLED
#define FBT_OBS_ENABLED 1
#endif

#if FBT_OBS_ENABLED

#include <cstdint>

#include "obs/event_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/resource.hpp"

#define FBT_OBS_CONCAT_IMPL(a, b) a##b
#define FBT_OBS_CONCAT(a, b) FBT_OBS_CONCAT_IMPL(a, b)

/// Adds `delta` to the named counter.
#define FBT_OBS_COUNTER_ADD(name, delta)                             \
  do {                                                               \
    static ::fbt::obs::Counter& fbt_obs_counter_ =                   \
        ::fbt::obs::registry().counter(name);                        \
    fbt_obs_counter_.add(static_cast<std::uint64_t>(delta));         \
  } while (0)

/// Sets the named gauge to `value`.
#define FBT_OBS_GAUGE_SET(name, value)                               \
  do {                                                               \
    static ::fbt::obs::Gauge& fbt_obs_gauge_ =                       \
        ::fbt::obs::registry().gauge(name);                          \
    fbt_obs_gauge_.set(static_cast<double>(value));                  \
  } while (0)

/// Records `sample` into the named histogram with explicit bucket bounds
/// (used on first registration only), e.g.
/// FBT_OBS_HIST_RECORD_WITH("bist.faults_dropped_per_segment", n,
///                          {1, 2, 5, 10, 20, 50, 100}).
#define FBT_OBS_HIST_RECORD_WITH(name, sample, ...)                  \
  do {                                                               \
    static ::fbt::obs::Histogram& fbt_obs_hist_ =                    \
        ::fbt::obs::registry().histogram(name,                       \
                                         std::vector<double> __VA_ARGS__); \
    fbt_obs_hist_.record(static_cast<double>(sample));               \
  } while (0)

/// Records `sample` into the named histogram with the log-scale 1 µs..10 s
/// latency bounds (see Histogram::log_latency_ms_bounds) -- the one bucket
/// layout for durations, from warm cache hits to cold experiment runs.
#define FBT_OBS_HIST_RECORD_LOG(name, sample)                         \
  do {                                                                \
    static ::fbt::obs::Histogram& fbt_obs_hist_ =                     \
        ::fbt::obs::registry().histogram(                             \
            name, ::fbt::obs::Histogram::log_latency_ms_bounds());    \
    fbt_obs_hist_.record(static_cast<double>(sample));                \
  } while (0)

/// Opens a phase span covering the rest of the enclosing scope.
#define FBT_OBS_PHASE(name) \
  ::fbt::obs::PhaseSpan FBT_OBS_CONCAT(fbt_obs_phase_, __LINE__)(name)

/// Records the current byte footprint of a named owned structure into the
/// process-wide footprint registry (overwrites the previous value), e.g.
/// FBT_OBS_FOOTPRINT("fault_list", faults.footprint_bytes()).
#define FBT_OBS_FOOTPRINT(name, bytes) \
  ::fbt::obs::footprints().record((name), static_cast<std::uint64_t>(bytes))

/// Appends a typed event to the process-wide journal, e.g.
/// FBT_OBS_EVENT("seed_accepted", {{"seed", seed}, {"tests", n}}).
/// Variadic because the brace-enclosed field list contains commas the
/// preprocessor would otherwise split on.
#define FBT_OBS_EVENT(type, ...) \
  ::fbt::obs::journal().emit((type), __VA_ARGS__)

#else  // !FBT_OBS_ENABLED

// sizeof keeps the arguments syntactically checked without evaluating them.
#define FBT_OBS_COUNTER_ADD(name, delta) \
  do { (void)sizeof(name); (void)sizeof(delta); } while (0)
#define FBT_OBS_GAUGE_SET(name, value) \
  do { (void)sizeof(name); (void)sizeof(value); } while (0)
#define FBT_OBS_HIST_RECORD_WITH(name, sample, ...) \
  do { (void)sizeof(name); (void)sizeof(sample); } while (0)
#define FBT_OBS_HIST_RECORD_LOG(name, sample) \
  do { (void)sizeof(name); (void)sizeof(sample); } while (0)
#define FBT_OBS_PHASE(name) do { (void)sizeof(name); } while (0)
#define FBT_OBS_FOOTPRINT(name, bytes) \
  do { (void)sizeof(name); (void)sizeof(bytes); } while (0)
// The field list's braces defeat the sizeof trick, so the arguments are
// discarded outright (still unevaluated, but not syntax-checked).
#define FBT_OBS_EVENT(...) do { } while (0)

#endif  // FBT_OBS_ENABLED
