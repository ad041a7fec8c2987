#pragma once

/// \file units.hpp
/// Simulation time and unit helpers. Simulated time is a double in seconds;
/// all model inputs are expressed through these helpers so that intent
/// (milliseconds vs microseconds, Mb/s vs MB/s) is visible at the call site.

#include <cstdint>

namespace dclue::sim {

/// Simulated time in seconds since the start of the run.
using Time = double;

/// A duration in simulated seconds.
using Duration = double;

constexpr Duration seconds(double v) { return v; }
constexpr Duration milliseconds(double v) { return v * 1e-3; }
constexpr Duration microseconds(double v) { return v * 1e-6; }

/// Data sizes. All sizes in the model are byte counts held in 64-bit ints.
using Bytes = std::int64_t;

constexpr Bytes kilobytes(double v) { return static_cast<Bytes>(v * 1024); }
constexpr Bytes megabytes(double v) { return static_cast<Bytes>(v * 1024 * 1024); }

/// Link and channel rates in bits per second.
using BitRate = double;

constexpr BitRate mbps(double v) { return v * 1e6; }
constexpr BitRate gbps(double v) { return v * 1e9; }

/// Time to serialize \p bytes onto a channel of rate \p rate.
constexpr Duration transmission_time(Bytes bytes, BitRate rate) {
  return static_cast<double>(bytes) * 8.0 / rate;
}

/// CPU work is expressed as a path-length: the number of instructions an
/// operation takes, following the paper's calibration methodology ("all input
/// parameters are expressed as path-lengths ... this ensures that a speed cut
/// of CPU by 100x automatically scales everything by 100x").
using PathLength = double;

/// Processor cycle counts (context-switch costs, stall cycles).
using Cycles = double;

}  // namespace dclue::sim
