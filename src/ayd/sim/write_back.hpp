// Scope guard for the simulators' register-resident working copies.
//
// The replica loops copy their hot mutable state — an RNG engine, a CRN
// pool cursor — into a local, so the common case runs in registers
// instead of loading and storing through the owning object on every
// draw. WriteBack copies the local back when the scope ends, on every
// exit path, including util::SimulationDiverged thrown mid-replica; the
// owner then holds exactly the state a loop working on it directly would
// have left.

#pragma once

namespace ayd::sim::detail {

template <class T>
class WriteBack {
 public:
  WriteBack(T& local, T& home) : local_(local), home_(home) {}
  WriteBack(const WriteBack&) = delete;
  WriteBack& operator=(const WriteBack&) = delete;
  ~WriteBack() { home_ = local_; }

 private:
  T& local_;
  T& home_;
};

}  // namespace ayd::sim::detail
