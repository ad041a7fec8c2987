#pragma once

/// \file sampler.hpp
/// In-process sampling profiler for the benchmark's traced pass. SIGPROF
/// fires every `period_us` of process CPU time (any thread) and records the
/// interrupted program counter. Afterwards each sample is attributed to the
/// `dclue::<module>` namespace of the function that contains it, read from
/// the executable's own ELF symbol table. Samples outside the executable
/// (libc, libstdc++) or in functions of no dclue module count as "other".
///
/// Attribution is self time at symbol granularity: code inlined into a
/// caller counts toward the caller's module. A function outside the dclue
/// namespaces whose name mentions a dclue type (a std:: template
/// instantiated on a model type) counts toward that type's module.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// The layer names samples are attributed to, in print order.
inline constexpr const char* kModules[] = {
    "sim", "cpu", "net", "proto", "cluster", "db", "storage", "workload",
    "core", "other"};

/// Start sampling. One sampler per process; not reentrant.
void start_sampling(int period_us);
/// Stop sampling; the recorded samples stay until the next start.
void stop_sampling();

struct SampleProfile {
  std::uint64_t samples = 0;  ///< recorded (at most the buffer's capacity)
  std::map<std::string, std::uint64_t> by_module;  ///< every kModules entry
};

/// Attribute the samples recorded by the last start/stop pair.
[[nodiscard]] SampleProfile attribute_samples();

}  // namespace perfbench
