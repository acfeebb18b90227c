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
  return start + ReadCost(reg.size());
}

Nanos SwitchOsDriver::ResetAll(RegisterArray& reg, Nanos start) const {
  obs::ScopedSpan span(obs::Global(), "switch_os.reset_all");
  for (std::size_t i = 0; i < reg.size(); ++i) {
    reg.ControlWrite(i, 0);
  }
  obs_entries_reset_->Add(reg.size());
  return start + ResetCost(reg.size());
}

}  // namespace ow
