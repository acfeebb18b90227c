// Exp#6 (Figure 11): time of AFR generation and collection.
//
// One sub-window holding 64 K flowkeys over a Count-Min instance
// (1–4 hash functions, 128 KB per array) is collected with seven methods:
//
//   OS    — conventional switch-OS register read (seconds),
//   CPC   — control-plane collection: inject all 64 K keys,
//   DPC   — data-plane collection: enumerate all keys by recirculation,
//   OW    — hybrid: 32 K keys cached in the data plane, 32 K injected,
//   CPC* / DPC* / OW* — the same with the RDMA optimization (§7).
//
// The bypass methods run through the real switch/controller machinery in
// simulated time (packet pacing from the DPDK cost model, recirculation
// from the switch timing model); the OS method uses the switch-OS latency
// model. Expected shape: OS is 2–3 orders of magnitude slower; CPC slowest
// of the bypasses; DPC*/OW* fastest.
#include <cstdio>
#include <memory>

#include "src/core/controller.h"
#include "src/core/data_plane.h"
#include "src/core/runner.h"
#include "src/sketch/count_min.h"
#include "src/switchsim/switch_os.h"
#include "src/telemetry/sketch_apps.h"

namespace {

using namespace ow;

constexpr std::size_t kTotalKeys = 64 * 1024;
constexpr std::size_t kArrayBytes = 128 << 10;

/// Drive one collection round and return (simulated) trigger-to-last-AFR
/// time. `cached_keys`: capacity of the data-plane flowkey array; the
/// remaining keys spill to the controller and are injected back.
Nanos MeasureCollection(std::size_t cached_keys, std::size_t rows,
                        bool rdma, bool controller_resolves,
                        std::size_t collection_packets) {
  auto app = std::make_shared<FrequencySketchApp>(
      "cm", FlowKeyKind::kFiveTuple, FrequencyValue::kPackets, [&] {
        return std::make_unique<CountMinSketch>(
            rows, kArrayBytes / 8);  // 128 KB per 8-byte-counter array
      });

  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = spec.subwindow_size = 100 * kMilli;  // W = 1
  RunConfig cfg = RunConfig::Make(spec);
  cfg.data_plane.tracker.capacity = std::max<std::size_t>(1, cached_keys);
  cfg.data_plane.tracker.bloom_bits = 1 << 21;
  cfg.controller.rdma = rdma;
  cfg.controller.rdma_controller_resolves_addresses = controller_resolves;
  cfg.controller.collection_packets = collection_packets;
  cfg.controller.kv_capacity = 1 << 18;

  Switch sw(0);
  auto program = std::make_shared<OmniWindowProgram>(cfg.data_plane, app);
  sw.SetProgram(program);
  OmniWindowController controller(cfg.controller, MergeKind::kFrequency);
  controller.AttachSwitch(&sw);
  RdmaNic nic;
  if (rdma) program->SetRdmaContext(controller.InitRdma(nic));

  // Instrument: trigger arrival and last collection-related arrival.
  Nanos trigger_at = -1, last_afr_at = -1;
  sw.SetControllerHandler([&](const Packet& p, Nanos t) {
    if (p.ow.flag == OwFlag::kTrigger && trigger_at < 0) trigger_at = t;
    if (p.ow.flag == OwFlag::kAfrReport) last_afr_at = t;
    controller.OnPacket(p, t);
  });

  // 64 K distinct flows inside the sub-window.
  for (std::size_t i = 0; i < kTotalKeys; ++i) {
    Packet p;
    p.ft = {std::uint32_t(i + 1), std::uint32_t((i * 7) + 1),
            std::uint16_t(i % 60'000 + 1), 80, 6};
    p.ts = Nanos(i) * (90 * kMilli) / Nanos(kTotalKeys);
    sw.EnqueueFromWire(p, p.ts);
  }
  Packet sentinel;
  sentinel.ts = 150 * kMilli;
  sw.EnqueueFromWire(sentinel, sentinel.ts);
  sw.RunBatch(kSecond * 100);

  if (trigger_at < 0 || last_afr_at < 0) return -1;
  // Exclude the controller's grace period (fixed wait, not collection
  // work).
  return last_afr_at - trigger_at - cfg.controller.grace_period;
}

}  // namespace

int main() {
  std::printf("Exp#6: AFR generation + collection time, Count-Min with 64 K "
              "flowkeys, 128 KB per array\n\n");
  std::printf("%6s %12s %12s %12s %12s %12s %12s %12s\n", "hashes", "OS",
              "CPC", "DPC", "OW", "CPC*", "DPC*", "OW*");

  SwitchOsTimings os_t;
  os_t.per_entry_read = 72 * kMicro;  // calibrated to the paper's OS reads
  SwitchOsDriver os(os_t);

  for (std::size_t rows = 1; rows <= 4; ++rows) {
    // OS: sequential register reads of `rows` arrays of 16 K entries
    // (128 KB / 8 B counters), per the switch-OS latency model.
    const Nanos os_time = Nanos(rows) * os.ReadCost(kArrayBytes / 8 * 2);

    const Nanos cpc = MeasureCollection(1, rows, false, false, 3);
    const Nanos dpc = MeasureCollection(kTotalKeys, rows, false, false, 3);
    const Nanos ow = MeasureCollection(kTotalKeys / 2, rows, false, false, 3);
    const Nanos cpc_r = MeasureCollection(1, rows, true, true, 16);
    const Nanos dpc_r = MeasureCollection(kTotalKeys, rows, true, false, 16);
    const Nanos ow_r =
        MeasureCollection(kTotalKeys / 2, rows, true, false, 16);

    auto ms = [](Nanos t) { return double(t) / 1e6; };
    std::printf("%6zu %9.1f ms %9.2f ms %9.2f ms %9.2f ms %9.2f ms %9.2f ms "
                "%9.2f ms\n",
                rows, ms(os_time), ms(cpc), ms(dpc), ms(ow), ms(cpc_r),
                ms(dpc_r), ms(ow_r));
    std::fflush(stdout);
  }
  std::printf("\n(OS uses the switch-OS PCIe/RPC latency model; the others "
              "run the full collection machinery in simulated time.)\n");
  return 0;
}
