/// \file autotune.hpp
/// \brief No-op stand-in for the removed run-time kernel tuner's cache.
///
/// Exists only so the frozen benchmark harness (perfbench/felis_perfbench.cpp)
/// keeps building: it clears this cache before every timed set-up. Kernels
/// now come from the static field::TensorKernels::for_order table, so there
/// is nothing to clear. Do not use it in new code.
#pragma once

namespace felis::device {

class TuneCache {
 public:
  static TuneCache& instance() {
    static TuneCache cache;
    return cache;
  }
  void clear() {}
};

}  // namespace felis::device
