// Pins the memory controller's output on three of the paper's baselines:
// every SimResult field bit for bit, plus the stall cycles each run adds to
// its memctrl.stall_cycles.* counter. The pins were recorded from the
// controller that recounted every bank each cycle and sorted a fresh
// schedule vector, so a faster loop must reproduce that one exactly, the
// order among requests with equal arrival cycles included.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/benchmarks.hpp"
#include "core/platform.hpp"
#include "memctrl/controller.hpp"
#include "memctrl/trace.hpp"
#include "memctrl/workload.hpp"
#include "obs/metrics.hpp"
#include "util/fnv.hpp"

namespace pdn3d::memctrl {
namespace {

enum class Mix { kReads, kWrites, kWritesRefresh, kTiedTrace };
enum class Pol { kStandard, kFcfs40, kDistR40, kDistRNoIso24 };

PolicyConfig make_policy(Pol pol, const irdrop::IrLut& lut) {
  PolicyConfig pc;
  switch (pol) {
    case Pol::kStandard: pc = standard_policy(); break;
    case Pol::kFcfs40: pc = ir_aware_policy(40.0, SchedulingKind::kFcfs); break;
    case Pol::kDistR40: pc = ir_aware_policy(40.0, SchedulingKind::kDistR); break;
    case Pol::kDistRNoIso24:
      pc = ir_aware_policy(24.0, SchedulingKind::kDistR);
      pc.isolation_check = false;
      break;
  }
  pc.lut = &lut;  // as core::Platform::simulate sets it, for reporting too
  return pc;
}

obs::Counter& stall_counter(const PolicyConfig& pc) {
  return obs::counter(
      std::string("memctrl.stall_cycles.") +
      (pc.ir_policy == IrPolicyKind::kIrAware ? "ir-aware" : "standard") + "." +
      (pc.scheduling == SchedulingKind::kDistR ? "distr" : "fcfs"));
}

/// FNV-1a over every SimResult field's bits (eight little-endian bytes each)
/// and the run's stall cycles.
std::uint64_t result_hash(const SimResult& r, std::uint64_t stalls) {
  util::Fnv1a h;
  const auto put = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) h.byte(static_cast<unsigned char>((v >> (8 * b)) & 0xffU));
  };
  const auto put_double = [&put](double v) { put(std::bit_cast<std::uint64_t>(v)); };
  put(r.feasible ? 1 : 0);
  put(static_cast<std::uint64_t>(r.cycles));
  put_double(r.runtime_us);
  put_double(r.bandwidth_reads_per_clk);
  put_double(r.max_ir_mv);
  put(static_cast<std::uint64_t>(r.reads));
  put(static_cast<std::uint64_t>(r.writes));
  put(static_cast<std::uint64_t>(r.activates));
  put(static_cast<std::uint64_t>(r.precharges));
  put(static_cast<std::uint64_t>(r.refreshes));
  put_double(r.avg_active_banks);
  put_double(r.row_hit_fraction);
  put(stalls);
  return h.value();
}

std::string describe(const SimResult& r, std::uint64_t stalls) {
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "feasible %d, cycles %lld, runtime %a us, bandwidth %a, max IR %a mV, reads %ld, "
                "writes %ld, activates %ld, precharges %ld, refreshes %ld, avg active %a, "
                "row hits %a, stalls %llu",
                r.feasible ? 1 : 0, r.cycles, r.runtime_us, r.bandwidth_reads_per_clk,
                r.max_ir_mv, r.reads, r.writes, r.activates, r.precharges, r.refreshes,
                r.avg_active_banks, r.row_hit_fraction, static_cast<unsigned long long>(stalls));
  return buf;
}

/// 64 requests to the eight lowest banks of the four dies: the first 40
/// arrive together at cycle 0 and 24 more together at cycle 300, so the
/// queue sorts more than 16 requests of equal arrival (std::sort is not
/// stable there) and the pins fix the order the controller gives them.
std::vector<Request> tied_trace() {
  std::ostringstream os;
  for (int i = 0; i < 64; ++i) {
    os << (i < 40 ? 0 : 300) << ' ' << i % 4 << ' ' << (i * 3) % 8 << ' ' << (i * 7) % 5 << ' '
       << (i % 3 == 0 ? 'W' : 'R') << '\n';
  }
  std::istringstream is(os.str());
  return read_trace(is);
}

struct Pin {
  core::BenchmarkKind bench;
  std::uint64_t seed;  ///< workload seed; 0 for the tied trace
  Mix mix;
  Pol pol;
  dram::Cycle cycles;
  std::uint64_t stalls;
  std::uint64_t hash;  ///< result_hash of the whole result
};

using core::BenchmarkKind;
constexpr BenchmarkKind kOff = BenchmarkKind::kStackedDdr3OffChip;
constexpr BenchmarkKind kWio = BenchmarkKind::kWideIo;
constexpr BenchmarkKind kHmc = BenchmarkKind::kHmc;

// clang-format off
const Pin kPins[] = {
    {kOff, 1001, Mix::kReads, Pol::kStandard, 17777, 11516, 0x01d4637524d81b71ULL},
    {kOff, 1001, Mix::kReads, Pol::kFcfs40, 15054, 9140, 0x2065fefa564c8197ULL},
    {kOff, 1001, Mix::kReads, Pol::kDistR40, 15054, 9095, 0xf4ad899e5681d88bULL},
    {kOff, 1001, Mix::kReads, Pol::kDistRNoIso24, 15054, 8962, 0x473c735b106b16f8ULL},
    {kOff, 1001, Mix::kWrites, Pol::kStandard, 23621, 17293, 0x8f927858a9472ad0ULL},
    {kOff, 1001, Mix::kWrites, Pol::kFcfs40, 15072, 8813, 0xcaf10e6d1f520235ULL},
    {kOff, 1001, Mix::kWrites, Pol::kDistR40, 15078, 8925, 0x35362eb2f1a89847ULL},
    {kOff, 1001, Mix::kWrites, Pol::kDistRNoIso24, 15125, 8835, 0x34b466585d373658ULL},
    {kOff, 1001, Mix::kWritesRefresh, Pol::kStandard, 24932, 18591, 0x609dc0adea72213dULL},
    {kOff, 1001, Mix::kWritesRefresh, Pol::kFcfs40, 15042, 8731, 0xd0789daa562aaaf1ULL},
    {kOff, 1001, Mix::kWritesRefresh, Pol::kDistR40, 15075, 8865, 0xd13f9140092948b2ULL},
    {kOff, 1001, Mix::kWritesRefresh, Pol::kDistRNoIso24, 15114, 8754, 0xb9b330928b85a00dULL},
    {kOff, 1002, Mix::kReads, Pol::kStandard, 17802, 11452, 0x5973bf7b92d48ed5ULL},
    {kOff, 1002, Mix::kReads, Pol::kFcfs40, 15024, 9073, 0x92db6a9136d7c027ULL},
    {kOff, 1002, Mix::kReads, Pol::kDistR40, 15031, 9094, 0xd9cbbb10ac994f99ULL},
    {kOff, 1002, Mix::kReads, Pol::kDistRNoIso24, 15026, 9052, 0x1a331670c458bc13ULL},
    {kOff, 1002, Mix::kWrites, Pol::kStandard, 23070, 16783, 0x110fc5ce163d9f7eULL},
    {kOff, 1002, Mix::kWrites, Pol::kFcfs40, 15086, 8891, 0x4aaf9e9184bc31dfULL},
    {kOff, 1002, Mix::kWrites, Pol::kDistR40, 15054, 8929, 0x1897c8c4aa5ca30eULL},
    {kOff, 1002, Mix::kWrites, Pol::kDistRNoIso24, 15085, 8877, 0x2c3f905f8f5404b4ULL},
    {kOff, 1002, Mix::kWritesRefresh, Pol::kStandard, 24247, 17940, 0xe95797fc90d1054cULL},
    {kOff, 1002, Mix::kWritesRefresh, Pol::kFcfs40, 15065, 8771, 0x7701bbb464dc90ffULL},
    {kOff, 1002, Mix::kWritesRefresh, Pol::kDistR40, 15066, 8849, 0xf85d875e3d289780ULL},
    {kOff, 1002, Mix::kWritesRefresh, Pol::kDistRNoIso24, 15053, 8754, 0x1a86215dc326e2c5ULL},
    {kOff, 1003, Mix::kReads, Pol::kStandard, 18067, 11704, 0x250998203ed0c52aULL},
    {kOff, 1003, Mix::kReads, Pol::kFcfs40, 15040, 9103, 0x079b312e21b886d2ULL},
    {kOff, 1003, Mix::kReads, Pol::kDistR40, 15025, 9089, 0x2205daa4b5069c3aULL},
    {kOff, 1003, Mix::kReads, Pol::kDistRNoIso24, 15024, 9051, 0x6e01c6658d4e15e1ULL},
    {kOff, 1003, Mix::kWrites, Pol::kStandard, 22820, 16536, 0xf676bdc83854f052ULL},
    {kOff, 1003, Mix::kWrites, Pol::kFcfs40, 15152, 8970, 0x5ff113c5a82d1cccULL},
    {kOff, 1003, Mix::kWrites, Pol::kDistR40, 15154, 8977, 0xfe3feaa5f12fbec6ULL},
    {kOff, 1003, Mix::kWrites, Pol::kDistRNoIso24, 15121, 8915, 0xefbdb4966da1bdacULL},
    {kOff, 1003, Mix::kWritesRefresh, Pol::kStandard, 23735, 17434, 0x7d8782726e3dd41eULL},
    {kOff, 1003, Mix::kWritesRefresh, Pol::kFcfs40, 15150, 8851, 0xb0ba73806199deb3ULL},
    {kOff, 1003, Mix::kWritesRefresh, Pol::kDistR40, 15112, 8984, 0x3b8c6f783c792675ULL},
    {kOff, 1003, Mix::kWritesRefresh, Pol::kDistRNoIso24, 15151, 8926, 0xe39622ddb17b547bULL},
    {kOff, 1004, Mix::kReads, Pol::kStandard, 17329, 11012, 0xc4d6dd41ef9c6c31ULL},
    {kOff, 1004, Mix::kReads, Pol::kFcfs40, 15036, 9177, 0x6ced5d8a96d38f1fULL},
    {kOff, 1004, Mix::kReads, Pol::kDistR40, 15024, 9177, 0x52991fa7237bb6b4ULL},
    {kOff, 1004, Mix::kReads, Pol::kDistRNoIso24, 15038, 9141, 0x78e28454a8b78513ULL},
    {kOff, 1004, Mix::kWrites, Pol::kStandard, 23589, 17246, 0x821625e0646d9dfbULL},
    {kOff, 1004, Mix::kWrites, Pol::kFcfs40, 15065, 8887, 0xc0af06ff9cbaf469ULL},
    {kOff, 1004, Mix::kWrites, Pol::kDistR40, 15070, 8922, 0xadb33934c0f60386ULL},
    {kOff, 1004, Mix::kWrites, Pol::kDistRNoIso24, 15079, 8917, 0x97b7e2ba01128778ULL},
    {kOff, 1004, Mix::kWritesRefresh, Pol::kStandard, 24764, 18406, 0x0f2626474d8dd2daULL},
    {kOff, 1004, Mix::kWritesRefresh, Pol::kFcfs40, 15088, 8755, 0xe36b98754bb25721ULL},
    {kOff, 1004, Mix::kWritesRefresh, Pol::kDistR40, 15118, 8895, 0xb1b5e37e6fbcc2bfULL},
    {kOff, 1004, Mix::kWritesRefresh, Pol::kDistRNoIso24, 15157, 8861, 0x68e36ef5cc865c46ULL},
    {kOff, 0, Mix::kTiedTrace, Pol::kFcfs40, 507, 337, 0x783f138b424378b0ULL},
    {kOff, 0, Mix::kTiedTrace, Pol::kDistR40, 495, 326, 0x4a9d15f4175eec41ULL},
    {kWio, 1001, Mix::kReads, Pol::kStandard, 12017, 6102, 0x168e8ae8387d5ae5ULL},
    {kWio, 1001, Mix::kReads, Pol::kFcfs40, 12003, 7405, 0x638dd6912fc4172bULL},
    {kWio, 1001, Mix::kReads, Pol::kDistR40, 12003, 7394, 0xdeed8006416ef326ULL},
    {kWio, 1001, Mix::kReads, Pol::kDistRNoIso24, 12003, 7394, 0xdeed8006416ef326ULL},
    {kWio, 1001, Mix::kWrites, Pol::kStandard, 13800, 7888, 0x2f58443ef8969334ULL},
    {kWio, 1001, Mix::kWrites, Pol::kFcfs40, 12030, 7229, 0x100a914c0881c621ULL},
    {kWio, 1001, Mix::kWrites, Pol::kDistR40, 12030, 7240, 0x9cb9801327daa95eULL},
    {kWio, 1001, Mix::kWrites, Pol::kDistRNoIso24, 12030, 7240, 0x9cb9801327daa95eULL},
    {kWio, 1001, Mix::kWritesRefresh, Pol::kStandard, 14389, 8462, 0xc14b4b368dc173f6ULL},
    {kWio, 1001, Mix::kWritesRefresh, Pol::kFcfs40, 12030, 7200, 0x8a99f3975b2d46b6ULL},
    {kWio, 1001, Mix::kWritesRefresh, Pol::kDistR40, 12030, 7209, 0x6401936e7a31bce2ULL},
    {kWio, 1001, Mix::kWritesRefresh, Pol::kDistRNoIso24, 12030, 7209, 0x6401936e7a31bce2ULL},
    {kWio, 1002, Mix::kReads, Pol::kStandard, 12017, 6132, 0x83dd7f5670b9796cULL},
    {kWio, 1002, Mix::kReads, Pol::kFcfs40, 12005, 7481, 0xe36bcf1db8d6dbcfULL},
    {kWio, 1002, Mix::kReads, Pol::kDistR40, 12005, 7481, 0xefd533ad7e065658ULL},
    {kWio, 1002, Mix::kReads, Pol::kDistRNoIso24, 12005, 7481, 0xefd533ad7e065658ULL},
    {kWio, 1002, Mix::kWrites, Pol::kStandard, 14163, 8268, 0x61da075bc27cb7ebULL},
    {kWio, 1002, Mix::kWrites, Pol::kFcfs40, 12004, 7134, 0xdf6791658035ef3aULL},
    {kWio, 1002, Mix::kWrites, Pol::kDistR40, 12004, 7148, 0xeea04438010180d4ULL},
    {kWio, 1002, Mix::kWrites, Pol::kDistRNoIso24, 12004, 7148, 0xeea04438010180d4ULL},
    {kWio, 1002, Mix::kWritesRefresh, Pol::kStandard, 14739, 8832, 0x7220fce0d9857135ULL},
    {kWio, 1002, Mix::kWritesRefresh, Pol::kFcfs40, 12004, 7109, 0x66c5762c76dde2ebULL},
    {kWio, 1002, Mix::kWritesRefresh, Pol::kDistR40, 12004, 7119, 0x98fe29578c977bcaULL},
    {kWio, 1002, Mix::kWritesRefresh, Pol::kDistRNoIso24, 12004, 7119, 0x98fe29578c977bcaULL},
    {kWio, 1003, Mix::kReads, Pol::kStandard, 12018, 6101, 0xef51501b4ab7c544ULL},
    {kWio, 1003, Mix::kReads, Pol::kFcfs40, 12001, 7390, 0x58d2e2fc31fbb95dULL},
    {kWio, 1003, Mix::kReads, Pol::kDistR40, 12001, 7390, 0xa975ef55ce08e202ULL},
    {kWio, 1003, Mix::kReads, Pol::kDistRNoIso24, 12001, 7390, 0xa975ef55ce08e202ULL},
    {kWio, 1003, Mix::kWrites, Pol::kStandard, 13582, 7729, 0xdcc15f5d5f9eb301ULL},
    {kWio, 1003, Mix::kWrites, Pol::kFcfs40, 12020, 7230, 0x1b2c97c84320b860ULL},
    {kWio, 1003, Mix::kWrites, Pol::kDistR40, 12020, 7222, 0x45a9735b5223b80eULL},
    {kWio, 1003, Mix::kWrites, Pol::kDistRNoIso24, 12020, 7222, 0x45a9735b5223b80eULL},
    {kWio, 1003, Mix::kWritesRefresh, Pol::kStandard, 14088, 8217, 0x64985da2ad1b50afULL},
    {kWio, 1003, Mix::kWritesRefresh, Pol::kFcfs40, 12020, 7214, 0xd10076c71266dcf6ULL},
    {kWio, 1003, Mix::kWritesRefresh, Pol::kDistR40, 12020, 7210, 0x54b83e68ec6fcb9aULL},
    {kWio, 1003, Mix::kWritesRefresh, Pol::kDistRNoIso24, 12020, 7210, 0x54b83e68ec6fcb9aULL},
    {kWio, 1004, Mix::kReads, Pol::kStandard, 12018, 6140, 0x9cacaad51eca4e1cULL},
    {kWio, 1004, Mix::kReads, Pol::kFcfs40, 12005, 7456, 0xd68cfe29bc10bd89ULL},
    {kWio, 1004, Mix::kReads, Pol::kDistR40, 12005, 7452, 0xbfdb42564709bf1cULL},
    {kWio, 1004, Mix::kReads, Pol::kDistRNoIso24, 12005, 7452, 0xbfdb42564709bf1cULL},
    {kWio, 1004, Mix::kWrites, Pol::kStandard, 14403, 8425, 0x6ce9d96db931ddb7ULL},
    {kWio, 1004, Mix::kWrites, Pol::kFcfs40, 12022, 7282, 0xacc9f73d3915ddacULL},
    {kWio, 1004, Mix::kWrites, Pol::kDistR40, 12022, 7284, 0x0c13fe4a22315beaULL},
    {kWio, 1004, Mix::kWrites, Pol::kDistRNoIso24, 12022, 7284, 0x0c13fe4a22315beaULL},
    {kWio, 1004, Mix::kWritesRefresh, Pol::kStandard, 15286, 9296, 0xae63312b8edebf28ULL},
    {kWio, 1004, Mix::kWritesRefresh, Pol::kFcfs40, 12022, 7232, 0x58437d4f568a4c11ULL},
    {kWio, 1004, Mix::kWritesRefresh, Pol::kDistR40, 12022, 7238, 0x426cdf8709450b46ULL},
    {kWio, 1004, Mix::kWritesRefresh, Pol::kDistRNoIso24, 12022, 7238, 0x426cdf8709450b46ULL},
    {kWio, 0, Mix::kTiedTrace, Pol::kFcfs40, 379, 282, 0x01767ecbe8b8b27cULL},
    {kWio, 0, Mix::kTiedTrace, Pol::kDistR40, 367, 263, 0x38d49d1717707ddeULL},
    {kHmc, 1001, Mix::kReads, Pol::kStandard, 15833, 9908, 0x4e043d85e748af63ULL},
    {kHmc, 1001, Mix::kReads, Pol::kFcfs40, 11764, 7745, 0x82bb4443a7a9b9b2ULL},
    {kHmc, 1001, Mix::kReads, Pol::kDistR40, 8975, 3886, 0xc85ee6deb1515d65ULL},
    {kHmc, 1001, Mix::kReads, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1001, Mix::kWrites, Pol::kStandard, 24758, 18435, 0x7ecbb9a766e29a97ULL},
    {kHmc, 1001, Mix::kWrites, Pol::kFcfs40, 16739, 11854, 0x7a690fe77e8b1186ULL},
    {kHmc, 1001, Mix::kWrites, Pol::kDistR40, 12958, 7376, 0x152479a7790ec7cbULL},
    {kHmc, 1001, Mix::kWrites, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1001, Mix::kWritesRefresh, Pol::kStandard, 26246, 19899, 0x0a8c1464f1acb48dULL},
    {kHmc, 1001, Mix::kWritesRefresh, Pol::kFcfs40, 16848, 11941, 0x87df01196cee07ffULL},
    {kHmc, 1001, Mix::kWritesRefresh, Pol::kDistR40, 13167, 7527, 0x8edaf3ab601d3140ULL},
    {kHmc, 1002, Mix::kReads, Pol::kStandard, 16059, 10060, 0x8a299bdb44a2edeeULL},
    {kHmc, 1002, Mix::kReads, Pol::kFcfs40, 11170, 7300, 0x7b1c4d3be9158e65ULL},
    {kHmc, 1002, Mix::kReads, Pol::kDistR40, 8232, 3312, 0xe8c99c5ce96930fbULL},
    {kHmc, 1002, Mix::kReads, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1002, Mix::kWrites, Pol::kStandard, 24922, 18568, 0xdfea46065089b330ULL},
    {kHmc, 1002, Mix::kWrites, Pol::kFcfs40, 14884, 10132, 0xaf2ee00d855659a0ULL},
    {kHmc, 1002, Mix::kWrites, Pol::kDistR40, 10727, 5332, 0xbfbafc18bce511deULL},
    {kHmc, 1002, Mix::kWrites, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1002, Mix::kWritesRefresh, Pol::kStandard, 26341, 19969, 0x3358d85d4ef7a77bULL},
    {kHmc, 1002, Mix::kWritesRefresh, Pol::kFcfs40, 15543, 10689, 0x59182922a93848aaULL},
    {kHmc, 1002, Mix::kWritesRefresh, Pol::kDistR40, 11183, 5747, 0x3e5735e4ef36cf8cULL},
    {kHmc, 1003, Mix::kReads, Pol::kStandard, 16538, 10560, 0x2eff263cb74eb164ULL},
    {kHmc, 1003, Mix::kReads, Pol::kFcfs40, 11105, 7130, 0x9b02ac0c0cb20622ULL},
    {kHmc, 1003, Mix::kReads, Pol::kDistR40, 8368, 3496, 0x4072bffdcc332d2eULL},
    {kHmc, 1003, Mix::kReads, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1003, Mix::kWrites, Pol::kStandard, 25089, 18722, 0x6e70cb5a9433f39eULL},
    {kHmc, 1003, Mix::kWrites, Pol::kFcfs40, 17310, 12386, 0x04cecae09c8550fbULL},
    {kHmc, 1003, Mix::kWrites, Pol::kDistR40, 13874, 8191, 0xadbb705ee4b0498eULL},
    {kHmc, 1003, Mix::kWrites, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1003, Mix::kWritesRefresh, Pol::kStandard, 26268, 19885, 0xbce83b5fb38266c6ULL},
    {kHmc, 1003, Mix::kWritesRefresh, Pol::kFcfs40, 17440, 12493, 0x0f529371f89caa3cULL},
    {kHmc, 1003, Mix::kWritesRefresh, Pol::kDistR40, 14316, 8638, 0xaaaf95d2675860fdULL},
    {kHmc, 1004, Mix::kReads, Pol::kStandard, 16343, 10390, 0xbcf0c129521bfda5ULL},
    {kHmc, 1004, Mix::kReads, Pol::kFcfs40, 11115, 7162, 0x8b2b33689afb44feULL},
    {kHmc, 1004, Mix::kReads, Pol::kDistR40, 8691, 3686, 0x3bffb663bd49df29ULL},
    {kHmc, 1004, Mix::kReads, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1004, Mix::kWrites, Pol::kStandard, 25481, 19105, 0x3ae9144cd8ae18b6ULL},
    {kHmc, 1004, Mix::kWrites, Pol::kFcfs40, 16718, 11740, 0x6f3339f491264807ULL},
    {kHmc, 1004, Mix::kWrites, Pol::kDistR40, 12727, 7247, 0xca22105491541012ULL},
    {kHmc, 1004, Mix::kWrites, Pol::kDistRNoIso24, 50063, 50032, 0x91bd49e55924f445ULL},
    {kHmc, 1004, Mix::kWritesRefresh, Pol::kStandard, 26615, 20222, 0x1d18caeff7e9488eULL},
    {kHmc, 1004, Mix::kWritesRefresh, Pol::kFcfs40, 17360, 12300, 0x2bd2c27363e52cd4ULL},
    {kHmc, 1004, Mix::kWritesRefresh, Pol::kDistR40, 13310, 7727, 0xaf25e991d6704088ULL},
    {kHmc, 0, Mix::kTiedTrace, Pol::kFcfs40, 663, 579, 0xaccf3908c21763afULL},
    {kHmc, 0, Mix::kTiedTrace, Pol::kDistR40, 617, 497, 0x7f945f9706ab8dd7ULL},
};
// clang-format on

TEST(ControllerPins, BaselinesMatchTheRecordedResults) {
  std::size_t next = 0;
  for (const BenchmarkKind kind : {kOff, kWio, kHmc}) {
    const core::Platform platform(core::make_benchmark(kind));
    const auto& bench = platform.benchmark();
    const irdrop::IrLut& lut = platform.lut(bench.baseline);
    const auto check = [&](std::uint64_t seed, Mix mix, Pol pol, std::vector<Request> requests) {
      SimConfig sim = bench.sim;
      sim.enable_refresh = mix == Mix::kWritesRefresh;
      const PolicyConfig pc = make_policy(pol, lut);
      obs::Counter& stalls = stall_counter(pc);
      const std::uint64_t before = stalls.value();
      const SimResult r = MemoryController(sim, pc).run(std::move(requests));
      const std::uint64_t added = stalls.value() - before;
      const std::string what = bench.name + " seed " + std::to_string(seed) + " case " +
                               std::to_string(next) + ": " + describe(r, added);
      ASSERT_LT(next, std::size(kPins)) << what;
      const Pin& pin = kPins[next++];
      ASSERT_TRUE(pin.bench == kind && pin.seed == seed && pin.mix == mix && pin.pol == pol)
          << what;
      EXPECT_EQ(r.cycles, pin.cycles) << what;
      EXPECT_EQ(added, pin.stalls) << what;
      EXPECT_EQ(result_hash(r, added), pin.hash) << what;
    };
    for (std::uint64_t seed = 1001; seed <= 1004; ++seed) {
      for (const Mix mix : {Mix::kReads, Mix::kWrites, Mix::kWritesRefresh}) {
        WorkloadConfig wc = bench.workload;
        wc.num_requests = 3000;
        wc.seed = seed;
        wc.write_fraction = mix == Mix::kReads ? 0.0 : 0.3;
        const auto requests = generate_workload(wc);
        for (const Pol pol : {Pol::kStandard, Pol::kFcfs40, Pol::kDistR40, Pol::kDistRNoIso24}) {
          // hmc's single-bank states all exceed 24 mV, so nothing is ever
          // admitted there. With refresh on, the recording controller let
          // refreshes reset its infeasibility timer and never returned, so
          // there is no pin; Controller.RefreshWithNoAdmissibleStateIsInfeasible
          // covers that case.
          if (kind == kHmc && pol == Pol::kDistRNoIso24 && mix == Mix::kWritesRefresh) continue;
          check(seed, mix, pol, requests);
        }
      }
    }
    for (const Pol pol : {Pol::kFcfs40, Pol::kDistR40}) {
      check(0, Mix::kTiedTrace, pol, tied_trace());
    }
  }
  EXPECT_EQ(next, std::size(kPins));
}

}  // namespace
}  // namespace pdn3d::memctrl
