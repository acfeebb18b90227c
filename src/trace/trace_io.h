// Trace persistence.
//
// Simple length-prefixed binary format so that generated traces can be
// cached between benchmark runs and shared across examples. Only the fields
// relevant to replay (five-tuple, size, timestamp, flags, seq, iteration)
// are stored; the OmniWindow header is runtime state and never persisted.
#pragma once

#include <string>

#include "src/trace/trace.h"

namespace ow {

/// Write `trace` to `path`. Throws std::runtime_error on I/O failure.
void SaveTrace(const Trace& trace, const std::string& path);

/// Read a trace previously written by SaveTrace. Throws std::runtime_error
/// on I/O failure or malformed input, including a negative timestamp
/// (naming the record's index).
Trace LoadTrace(const std::string& path);

/// Write `trace` as CSV with header
/// `ts_ns,src_ip,dst_ip,src_port,dst_port,proto,tcp_flags,size,seq,iteration`
/// (addresses dotted-quad) for interop with external tooling.
void ExportTraceCsv(const Trace& trace, const std::string& path);

/// Read a CSV written by ExportTraceCsv (or hand-crafted with the same
/// header). Throws std::runtime_error, naming the line, on a malformed row:
/// not 10 fields, a field that does not parse whole as a decimal that fits
/// its type (a dotted quad for addresses), or a negative timestamp.
Trace ImportTraceCsv(const std::string& path);

}  // namespace ow
