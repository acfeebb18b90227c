// Telemetry application adapter.
//
// OmniWindow is a window FRAMEWORK: the measurement logic itself belongs to
// the telemetry application (a Sonata query, a sketch instance, ...). This
// interface is the contract between the framework and the application, and
// mirrors what the paper requires of integrable applications (§4.1,
// "feasibility analysis"): a flowkey definition, a data-plane point query
// used to derive AFRs, and per-slice state reset for clear packets. The
// application maintains its state twice — once per shared memory region —
// and every call names the region it targets.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/packet.h"
#include "src/common/snapshot.h"
#include "src/controller/merge.h"
#include "src/switchsim/register_array.h"
#include "src/switchsim/resources.h"

namespace ow {

/// Controller-side rewrite of one finalized sub-window's records before
/// they merge (§8: a state-migration app "constructs AFRs" from its raw
/// slices, e.g. FlowRadar decodes cells into per-flow records).
using SubWindowTransform = std::function<RecordVec(RecordVec&&)>;

class TelemetryAppAdapter {
 public:
  virtual ~TelemetryAppAdapter() = default;

  virtual std::string name() const = 0;

  /// The application's flowkey definition.
  virtual FlowKeyKind key_kind() const = 0;

  /// How the controller merges this app's AFRs across sub-windows.
  virtual MergeKind merge_kind() const = 0;

  /// Data-plane update: fold one packet into the region's state.
  virtual void Update(const Packet& p, int region) = 0;

  /// Data-plane flow query: derive the AFR of `key` from the region's
  /// state. `subwindow` is stamped into the record. Only called when
  /// SupportsAfr(); the default, for state-migration apps, returns an
  /// empty record of the sub-window.
  virtual FlowRecord Query(const FlowKey& key, int region,
                           SubWindowNum subwindow) const {
    (void)key;
    (void)region;
    FlowRecord rec;
    rec.subwindow = subwindow;
    return rec;
  }

  /// In-switch reset, one clear-packet pass: zero slice `index` of the
  /// region's state. A "slice" is one position across all of the app's
  /// register arrays — a single clear packet resets the same position of
  /// every register in one pipeline pass (§4.3).
  virtual void ResetSlice(int region, std::size_t index) = 0;

  /// Number of slices a full region reset needs (the largest register
  /// array's entry count).
  virtual std::size_t NumResetSlices() const = 0;

  /// Whether the application tracks candidate keys itself (MV-Sketch,
  /// HashPipe). If true, the framework skips its own flowkey tracking and
  /// enumerates TrackedKeys() instead.
  virtual bool TracksOwnKeys() const { return false; }
  virtual PooledVector<FlowKey> TrackedKeys(int region) const {
    (void)region;
    return {};
  }

  /// Whether the data plane can answer Query() (§8: FlowRadar/NZE-style
  /// apps cannot; they use whole-state migration instead).
  virtual bool SupportsAfr() const { return true; }

  /// State-migration path (§8, "Merging intermediate data without AFRs"):
  /// instead of per-flow AFRs, the recirculating collection packets
  /// enumerate raw state SLICES. Each slice is returned as a FlowRecord
  /// whose key encodes the slice index and whose attrs carry up to four
  /// state words; the controller merges slices across sub-windows with
  /// this app's merge_kind() (kMax for HLL registers, kDistinction/OR for
  /// bitmap words, ...). Only called when SupportsAfr() is false; the
  /// number of slices is NumResetSlices().
  virtual FlowRecord MigrateSlice(int region, std::size_t index,
                                  SubWindowNum subwindow) const {
    (void)region;
    (void)index;
    FlowRecord rec;
    rec.subwindow = subwindow;
    return rec;
  }

  /// The app's §8 decode: the transform its controller applies to each
  /// sub-window's migrated slices before merging them. Empty (the default)
  /// merges the records as they arrive. The transform may refer to this
  /// app, so the app must outlive the controller that runs it.
  virtual SubWindowTransform SubWindowDecoder() const { return {}; }

  /// Charge the app's own data-plane footprint (Exp#5 reports framework
  /// features separately from the app, but the app must fit too).
  virtual void ChargeResources(ResourceLedger& ledger) const {
    (void)ledger;
  }

  /// Register arrays backing this app's state, so the pipeline can arm the
  /// one-SALU-access-per-pass check before every packet. Apps modelled on
  /// plain memory (the sketch wrappers) return empty. Callers driving an
  /// adapter directly (outside a Switch) must call BeginPass() themselves.
  virtual std::vector<RegisterArray*> Registers() { return {}; }

  /// Checkpoint the app's measurement state. The default implementation
  /// serializes every register array from Registers(), which covers any
  /// register-backed app; apps on plain memory must override BOTH methods
  /// or checkpointing fails loudly (a silent no-op here would restore an
  /// empty app and corrupt every window after the restore point).
  virtual void SaveState(SnapshotWriter& w) {
    w.Section(snap::kApp);
    std::vector<RegisterArray*> regs = Registers();
    if (regs.empty()) {
      throw SnapshotError("app '" + name() +
                          "' keeps state outside register arrays and does "
                          "not override SaveState/LoadState");
    }
    w.Size(regs.size());
    for (RegisterArray* reg : regs) reg->Save(w);
  }
  virtual void LoadState(SnapshotReader& r) {
    r.Section(snap::kApp);
    std::vector<RegisterArray*> regs = Registers();
    if (regs.empty()) {
      throw SnapshotError("app '" + name() +
                          "' keeps state outside register arrays and does "
                          "not override SaveState/LoadState");
    }
    CheckShape(snap::kApp, ("app '" + name() + "'").c_str(), "register count",
               regs.size(), r.Size());
    for (RegisterArray* reg : regs) reg->Load(r);
  }
};

using AdapterPtr = std::shared_ptr<TelemetryAppAdapter>;

}  // namespace ow
