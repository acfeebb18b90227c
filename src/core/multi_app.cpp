#include "src/core/multi_app.h"

#include <stdexcept>

namespace ow {

MultiAppProgram::MultiAppProgram(
    std::vector<std::shared_ptr<OmniWindowProgram>> programs)
    : programs_(std::move(programs)) {
  if (programs_.empty()) {
    throw std::invalid_argument("MultiAppProgram: no programs");
  }
  for (const auto& p : programs_) {
    if (!p) throw std::invalid_argument("MultiAppProgram: null program");
  }
}

void MultiAppProgram::Process(Packet& p, Nanos now, PacketSource src,
                              PipelineActions& act) {
  // An app appends to the caller's lists; what it appended carries its id.
  const auto run = [&](std::size_t app) {
    const std::size_t to_controller = act.to_controller.size();
    const std::size_t recirculate = act.recirculate.size();
    programs_[app]->Process(p, now, src, act);
    for (std::size_t i = to_controller; i < act.to_controller.size(); ++i) {
      act.to_controller[i].ow.app_id = std::uint8_t(app);
    }
    for (std::size_t i = recirculate; i < act.recirculate.size(); ++i) {
      act.recirculate[i].ow.app_id = std::uint8_t(app);
    }
  };
  if (p.ow.present && p.ow.flag != OwFlag::kNormal) {
    // Protocol packets belong to exactly one app's C&R machinery.
    if (p.ow.app_id < programs_.size()) run(p.ow.app_id);
    act.drop = true;
    return;
  }
  // Normal traffic traverses every app's tables in this single pass, and
  // any app may drop it. The first program stamps the sub-window number;
  // followers adopt it.
  for (std::size_t app = 0; app < programs_.size(); ++app) run(app);
}

std::vector<RegisterArray*> MultiAppProgram::Registers() {
  std::vector<RegisterArray*> regs;
  for (const auto& p : programs_) {
    for (RegisterArray* r : p->Registers()) regs.push_back(r);
  }
  return regs;
}

void MultiAppProgram::ChargeResources(ResourceLedger& ledger) const {
  for (const auto& p : programs_) p->ChargeResources(ledger);
}

MultiAppHarness::MultiAppHarness(Switch& sw, OmniWindowConfig base_config,
                                 std::vector<AppSpec> apps) {
  if (apps.empty()) {
    throw std::invalid_argument("MultiAppHarness: no apps");
  }
  if (apps.size() > 256) {
    throw std::invalid_argument("MultiAppHarness: app_id is 8 bits");
  }
  std::vector<std::shared_ptr<OmniWindowProgram>> programs;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    OmniWindowConfig cfg = base_config;
    cfg.first_hop = (i == 0);  // one signal driver, the rest follow
    programs.push_back(
        std::make_shared<OmniWindowProgram>(cfg, apps[i].adapter));
  }
  program_ = std::make_shared<MultiAppProgram>(std::move(programs));
  sw.SetProgram(program_);

  for (std::size_t i = 0; i < apps.size(); ++i) {
    ControllerConfig cc = apps[i].controller;
    cc.app_id = std::uint8_t(i);
    controllers_.push_back(std::make_unique<OmniWindowController>(
        cc, apps[i].adapter->merge_kind()));
    controllers_.back()->AttachSwitch(&sw);
  }
  // Demux: one handler dispatching on app_id.
  sw.SetControllerHandler([this](const Packet& p, Nanos arrival) {
    const std::size_t app = p.ow.app_id;
    if (app < controllers_.size()) {
      controllers_[app]->OnPacket(p, arrival);
    }
  });
}

bool MultiAppHarness::FlushAll(Nanos now) {
  bool all = true;
  for (auto& c : controllers_) {
    if (!c->Flush(now)) all = false;
  }
  return all;
}

}  // namespace ow
