#include "src/switchsim/switch_os.h"

namespace ow {

Nanos SwitchOsDriver::ReadAll(const RegisterArray& reg,
                              std::vector<std::uint64_t>& out,
                              Nanos start) const {
  obs::ScopedSpan span(obs::Global(), "switch_os.read_all");
  out.reserve(out.size() + reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    out.push_back(reg.ControlRead(i));
  }
  obs_entries_read_->Add(reg.size());
  return FaultedCost(timings_.rpc_setup, reg.size(), timings_.per_entry_read,
                     start);
}

Nanos SwitchOsDriver::ResetAll(RegisterArray& reg, Nanos start) const {
  obs::ScopedSpan span(obs::Global(), "switch_os.reset_all");
  for (std::size_t i = 0; i < reg.size(); ++i) {
    reg.ControlWrite(i, 0);
  }
  obs_entries_reset_->Add(reg.size());
  return FaultedCost(timings_.rpc_setup, reg.size(), timings_.per_entry_write,
                     start);
}

Nanos SwitchOsDriver::FaultedCost(Nanos base, std::size_t entries,
                                  Nanos per_entry, Nanos start) const {
  const Nanos entry_cost = Nanos(entries) * per_entry;
  if (!faults_) return start + base + entry_cost;
  const auto op = faults_->OnOp();
  Nanos scaled = entry_cost;
  if (op.entry_scale != 1.0) {
    scaled = Nanos(double(entry_cost) * op.entry_scale);
  }
  return start + base + scaled + op.extra;
}

}  // namespace ow
