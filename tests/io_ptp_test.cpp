// Tests for CSV trace interop and the PTP synchronization model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/net/ptp.h"
#include "src/trace/generator.h"
#include "src/trace/trace_io.h"

namespace ow {
namespace {

TEST(TraceCsv, RoundTrip) {
  TraceConfig cfg;
  cfg.seed = 3;
  cfg.duration = 100 * kMilli;
  cfg.packets_per_sec = 5'000;
  cfg.num_flows = 200;
  TraceGenerator gen(cfg);
  Trace trace = gen.GenerateBackground();
  trace.packets[0].iteration = 42;  // exercise the iteration column

  const std::string path = ::testing::TempDir() + "/ow_trace.csv";
  ExportTraceCsv(trace, path);
  const Trace loaded = ImportTraceCsv(path);
  ASSERT_EQ(loaded.packets.size(), trace.packets.size());
  for (std::size_t i = 0; i < trace.packets.size(); i += 37) {
    EXPECT_EQ(loaded.packets[i].ft, trace.packets[i].ft);
    EXPECT_EQ(loaded.packets[i].ts, trace.packets[i].ts);
    EXPECT_EQ(loaded.packets[i].size_bytes, trace.packets[i].size_bytes);
    EXPECT_EQ(loaded.packets[i].iteration, trace.packets[i].iteration);
  }
  std::remove(path.c_str());
}

TEST(TraceCsv, RejectsBadHeader) {
  const std::string path = ::testing::TempDir() + "/ow_bad.csv";
  {
    std::ofstream out(path);
    out << "not,a,trace\n1,2,3\n";
  }
  EXPECT_THROW(ImportTraceCsv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCsv, RejectsMalformedRow) {
  const std::string path = ::testing::TempDir() + "/ow_bad2.csv";
  {
    std::ofstream out(path);
    out << "ts_ns,src_ip,dst_ip,src_port,dst_port,proto,tcp_flags,size,seq,"
           "iteration\n";
    out << "0,10.0.0.1,10.0.0.2,1,2,6,2,64\n";  // 8 fields
  }
  EXPECT_THROW(ImportTraceCsv(path), std::runtime_error);
  std::remove(path.c_str());
}

constexpr char kCsvHeader[] =
    "ts_ns,src_ip,dst_ip,src_port,dst_port,proto,tcp_flags,size,seq,"
    "iteration\n";

std::string WriteCsv(const std::string& name, const std::string& rows) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << kCsvHeader << rows;
  return path;
}

TEST(TraceCsv, LoadsEveryFieldAtItsLimit) {
  const std::string path = WriteCsv(
      "ow_limits.csv",
      "9223372036854775807,255.255.255.255,0.0.0.0,65535,0,255,255,65535,"
      "4294967295,4294967295\n");
  const Trace t = ImportTraceCsv(path);
  ASSERT_EQ(t.packets.size(), 1u);
  const Packet& p = t.packets[0];
  EXPECT_EQ(p.ts, INT64_MAX);
  EXPECT_EQ(p.ft.src_ip, 0xFFFFFFFFu);
  EXPECT_EQ(p.ft.dst_ip, 0u);
  EXPECT_EQ(p.ft.src_port, 65535);
  EXPECT_EQ(p.ft.proto, 255);
  EXPECT_EQ(p.tcp_flags, 255);
  EXPECT_EQ(p.size_bytes, 65535);
  EXPECT_EQ(p.seq, 0xFFFFFFFFu);
  EXPECT_EQ(p.iteration, 0xFFFFFFFFu);
  std::remove(path.c_str());
}

TEST(TraceCsv, RefusesFieldsThatDoNotParseWholeOrFit) {
  // Each row is valid but for one field. Casting std::stoul's result used
  // to load these as 4464, 80, 44, 255, 34463, 0 and a truncated address.
  const char* const kGood[] = {"0",  "10.0.0.1", "10.0.0.2", "1234", "80",
                               "6",  "2",        "64",       "0",    "0"};
  const struct {
    std::size_t field;
    const char* text;
  } kBad[] = {
      {0, "-5"},          {0, "12ns"},         {0, ""},
      {1, "10.0.0.1x"},   {1, "10.0.0"},       {1, "10.0.0.256"},
      {2, "10.0.0.2.3"},  {2, " 10.0.0.2"},    {3, "70000"},
      {3, "80x"},         {3, "-1"},           {4, "+80"},
      {5, "300"},         {6, "-1"},           {7, "99999"},
      {8, "4294967296"},  {9, "4294967296"},   {9, "1e3"},
  };
  const auto row = [&kGood](std::size_t field, const char* text) {
    std::string out;
    for (std::size_t i = 0; i < 10; ++i) {
      if (i > 0) out += ',';
      out += i == field ? text : kGood[i];
    }
    return out + "\n";
  };
  for (const auto& bad : kBad) {
    // A good row first, so the error must name the second data line.
    const std::string path =
        WriteCsv("ow_bad_field.csv", row(0, "0") + row(bad.field, bad.text));
    try {
      ImportTraceCsv(path);
      ADD_FAILURE() << "loaded field " << bad.field << " = '" << bad.text
                    << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
}

TEST(TraceCsv, RefusesATrailingField) {
  const std::string path =
      WriteCsv("ow_trailing.csv", "0,10.0.0.1,10.0.0.2,1,2,6,2,64,0,0,\n");
  EXPECT_THROW(ImportTraceCsv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Ptp, SymmetricPathIsUnbiased) {
  PtpConfig cfg;
  cfg.load_asymmetry = 0.5;
  PtpSync ptp(cfg, 1);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    sum += double(ptp.ExchangeEstimate(0));
  }
  // Mean error near zero when both directions see the same load.
  EXPECT_LT(std::abs(sum / n), double(cfg.queue_jitter) * 0.05);
}

TEST(Ptp, AsymmetricLoadBiasesTheEstimate) {
  PtpConfig cfg;
  cfg.queue_jitter = 40 * kMicro;
  cfg.load_asymmetry = 0.9;  // forward path congested
  PtpSync ptp(cfg, 2);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += double(ptp.ExchangeEstimate(0));
  // Expected bias = (E[d_fwd] - E[d_rev]) / 2 = jitter * (0.9 - 0.1) / 2.
  const double expected = double(cfg.queue_jitter) * 0.8 / 2;
  EXPECT_NEAR(sum / n, expected, expected * 0.1);
}

TEST(Ptp, ResidualsGrowWithLoadJitter) {
  auto mean_residual = [](Nanos jitter) {
    PtpConfig cfg;
    cfg.queue_jitter = jitter;
    cfg.load_asymmetry = 0.7;
    PtpSync ptp(cfg, 3);
    const auto residuals = ptp.ResidualOffsets(2'000);
    double sum = 0;
    for (Nanos r : residuals) sum += double(r);
    return sum / double(residuals.size());
  };
  const double quiet = mean_residual(2 * kMicro);
  const double loaded = mean_residual(100 * kMicro);
  // The paper's premise: deviation spans orders of magnitude with load.
  EXPECT_GT(loaded, quiet * 10);
  // And the magnitudes land in the paper's "hundreds of ns to hundreds of
  // us" range.
  EXPECT_GT(quiet, 100.0);          // > 0.1 us
  EXPECT_LT(loaded, 500.0 * 1000);  // < 500 us
}

}  // namespace
}  // namespace ow
