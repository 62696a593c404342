// Machine-readable run reports (schema optrep.run/v1, see
// docs/OBSERVABILITY.md): one JSON document per workload run, carrying the
// workload tags (scenario, seed, topology), driver statistics, system totals
// — including γ/|Δ| accounting and Table 2 bound checks — and the system's
// full metrics registry. Also the JSON of a single session's SyncReport.
//
// The CLI and the determinism tests share these builders, so "two same-seed
// runs export byte-identical JSON" is a property of one function, not of two
// hand-kept copies.
#pragma once

#include <string>

#include "repl/op_system.h"
#include "repl/record_system.h"
#include "repl/state_system.h"
#include "workload/trace.h"

namespace optrep::wl {

// One session's report, cross-checked against the Table 2 bound for `kind`
// (vv::within_table2_bound): when the bound is exceeded the document says so
// ("within_table2_bound":false) and, if a registry is supplied, its
// "obs.bound_violations" counter advances — a session can never exceed the
// paper's bound silently.
std::string sync_report_to_json(const vv::SyncReport& r, vv::VectorKind kind,
                                const CostModel& cm, obs::Registry* bound_sink = nullptr);

std::string state_run_report_json(const repl::StateSystem& sys, const Trace& trace,
                                  const RunStats& stats);

std::string op_run_report_json(const repl::OpSystem& sys, const Trace& trace,
                               const RunStats& stats);

// The record-store workload is not trace-driven; its parameters arrive as
// explicit tags.
struct RecordsRunTags {
  std::uint32_t sites{0};
  std::uint32_t steps{0};
  double update_prob{0};
  double overlap{0};
  std::uint32_t key_pool{0};
  std::uint64_t seed{0};
};
std::string records_run_report_json(const repl::RecordSystem& sys,
                                    const RecordsRunTags& tags);

}  // namespace optrep::wl
