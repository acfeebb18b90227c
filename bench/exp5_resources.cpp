// Exp#5 (Table 2): switch resource breakdown of Q1.
//
// Builds the OmniWindow data-plane program for Q1 (with the RDMA
// optimization compiled in, as the paper's table includes it) and prints
// the per-feature hardware charges from the resource ledger: stages, SRAM,
// SALUs, VLIW slots and gateways, plus totals and the fraction of a
// Tofino-class budget they occupy. Stage/VLIW sharing makes totals smaller
// than the per-feature sums, as the paper notes.
#include <cstdio>

#include "bench/harness.h"
#include "src/switchsim/stage_planner.h"

int main() {
  using namespace ow;
  using namespace ow::bench;

  const QueryDef def = StandardQuery(1);
  OmniWindowConfig cfg;
  cfg.tracker.capacity = 32 * 1024;  // paper's 32 K flowkey array
  cfg.tracker.bloom_bits = 1 << 20;
  auto app = std::make_shared<QueryAdapter>(def, 1 << 14);
  OmniWindowProgram program(cfg, app);
  // An RDMA context, even without a NIC, charges the "RDMA opt." row.
  program.SetRdmaContext(std::make_shared<RdmaContext>());

  ResourceLedger ledger;
  program.ChargeResources(ledger);

  std::printf("Exp#5: switch resource breakdown of Q1 + OmniWindow\n\n");
  std::printf("%s\n", ledger.ToTable().c_str());

  const ResourceUsage total = ledger.Total();
  const ResourceBudget budget;
  std::printf("fits Tofino-class budget: %s\n",
              ledger.Fits(budget) ? "yes" : "NO");
  std::printf("normalized usage: stages %.0f%%  SRAM %.1f%%  SALU %.1f%%  "
              "VLIW %.1f%%  gateways %.1f%%\n",
              100.0 * double(total.stages.size()) / budget.stages,
              100.0 * double(total.sram_bytes) / double(budget.sram_bytes),
              100.0 * double(total.salus) /
                  double(budget.salus_per_stage * budget.stages),
              100.0 * double(total.vliw) /
                  double(budget.vliw_per_stage * budget.stages),
              100.0 * double(total.gateways) /
                  double(budget.gateways_per_stage * budget.stages));

  // Stage placement: can the program actually be laid out into the
  // pipeline respecting per-stage limits and match dependencies?
  std::vector<PlacementRequest> features;
  auto feat = [&](std::string name, int units, int salus, std::size_t sram,
                  int vliw, int gw, std::vector<std::string> after = {}) {
    PlacementRequest req;
    req.feature = std::move(name);
    for (int i = 0; i < units; ++i) {
      req.units.push_back({.salus = salus, .sram_bytes = sram / units,
                           .vliw = vliw, .gateways = gw});
    }
    req.after = std::move(after);
    features.push_back(std::move(req));
  };
  feat("signal", 1, 1, 32 << 10, 3, 2);
  feat("consistency", 1, 0, 0, 2, 1, {"signal"});
  feat("address_location", 1, 0, 16 << 10, 2, 0, {"consistency"});
  feat("app_state", 4, 1, 1 << 20, 1, 0, {"address_location"});
  feat("flowkey_tracking", 4, 1, 1280 << 10, 2, 2, {"consistency"});
  feat("afr_generation", 1, 0, 0, 4, 3, {"app_state", "flowkey_tracking"});
  feat("in_switch_reset", 2, 1, 32 << 10, 3, 3, {"address_location"});
  feat("rdma_opt", 3, 1, 928 << 10, 7, 5, {"afr_generation"});

  std::string error;
  StagePlanner planner(budget);
  const auto plan = planner.Plan(features, &error);
  if (!plan) {
    std::printf("\nstage placement: FAILED (%s)\n", error.c_str());
    return 1;
  }
  std::printf("\nstage placement (dependency-ordered greedy): %d stages\n",
              plan->stages_used);
  for (const auto& f : features) {
    std::printf("  %-18s stages %d..%d\n", f.feature.c_str(),
                plan->FirstStageOf(f.feature), plan->LastStageOf(f.feature));
  }
  return 0;
}
