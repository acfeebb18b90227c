#include "src/rdma/rdma.h"

#include <cstring>
#include <memory>

namespace ow {

std::uint64_t MemoryRegion::ReadU64(std::uint64_t offset) const {
  if (offset + 8 > bytes_.size()) {
    throw std::out_of_range("MemoryRegion::ReadU64 out of bounds");
  }
  std::uint64_t v;
  std::memcpy(&v, bytes_.data() + offset, 8);
  return v;
}

void MemoryRegion::WriteU64(std::uint64_t offset, std::uint64_t v) {
  if (offset + 8 > bytes_.size()) {
    throw std::out_of_range("MemoryRegion::WriteU64 out of bounds");
  }
  std::memcpy(bytes_.data() + offset, &v, 8);
}

MemoryRegion& RdmaNic::RegisterMemory(std::size_t bytes) {
  regions_.push_back(std::make_unique<MemoryRegion>(next_rkey_++, bytes));
  return *regions_.back();
}

MemoryRegion* RdmaNic::FindMr(std::uint32_t rkey) {
  for (auto& mr : regions_) {
    if (mr->rkey() == rkey) return mr.get();
  }
  return nullptr;
}

std::uint64_t RdmaNic::Execute(const RdmaRequest& req) {
  MemoryRegion* mr = FindMr(req.rkey);
  if (!mr) throw std::invalid_argument("RdmaNic: unknown rkey");
  if (psn_seen_ && req.psn != expected_psn_) {
    throw std::logic_error("RdmaNic: out-of-order PSN (got " +
                           std::to_string(req.psn) + ", expected " +
                           std::to_string(expected_psn_) + ")");
  }
  psn_seen_ = true;
  expected_psn_ = req.psn + 1;
  ++ops_;
  switch (req.opcode) {
    case RdmaOpcode::kWrite: {
      if (req.remote_offset + req.payload.size() > mr->size()) {
        throw std::out_of_range("RdmaNic: WRITE out of MR bounds");
      }
      // NIC time is charged and the attempt high-water mark advances even
      // when a fault swallows the commit: the request crossed the wire, the
      // drain logic just finds a hole where its bytes should be.
      nic_time_ += timings_.per_write;
      mr->NoteWriteAttempt(req.remote_offset + req.payload.size());
      std::size_t commit = req.payload.size();
      if (faults_ && req.rkey == fault_rkey_) {
        const auto fd = faults_->Decide();
        if (fd.drop) return 0;
        if (fd.partial) commit /= 2;
      }
      std::memcpy(mr->bytes().data() + req.remote_offset, req.payload.data(),
                  commit);
      return 0;
    }
    case RdmaOpcode::kFetchAdd: {
      const std::uint64_t old = mr->ReadU64(req.remote_offset);
      mr->WriteU64(req.remote_offset, old + req.add_value);
      nic_time_ += timings_.per_fetch_add;
      return old;
    }
  }
  throw std::logic_error("RdmaNic: bad opcode");
}

RdmaRequest RdmaRequestBuilder::Write(std::uint64_t remote_offset,
                                      std::span<const std::uint8_t> payload) {
  RdmaRequest req;
  req.opcode = RdmaOpcode::kWrite;
  req.rkey = rkey_;
  req.remote_offset = remote_offset;
  req.psn = psn_++;
  req.payload.assign(payload.begin(), payload.end());
  return req;
}

RdmaRequest RdmaRequestBuilder::WriteU64(std::uint64_t remote_offset,
                                         std::uint64_t value) {
  std::uint8_t buf[8];
  std::memcpy(buf, &value, 8);
  return Write(remote_offset, std::span<const std::uint8_t>(buf, 8));
}

RdmaRequest RdmaRequestBuilder::FetchAdd(std::uint64_t remote_offset,
                                         std::uint64_t value) {
  RdmaRequest req;
  req.opcode = RdmaOpcode::kFetchAdd;
  req.rkey = rkey_;
  req.remote_offset = remote_offset;
  req.psn = psn_++;
  req.add_value = value;
  return req;
}

}  // namespace ow
