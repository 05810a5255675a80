#include "faults/faults.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <chrono>
#include <new>
#include <thread>

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"
#include "util/fnv.hpp"
#include "util/string_util.hpp"

namespace pdn3d::faults {

namespace {

// Global gate mirrored from the registry so inert probes cost one relaxed
// atomic load and nothing else.
std::atomic<bool> g_enabled{false};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0,1) from (seed, site, call index) — the whole fault
// schedule is a pure function of the spec.
double decision_u01(std::uint64_t seed, std::uint64_t site_hash, std::uint64_t call) {
  const std::uint64_t mixed = splitmix64(splitmix64(seed ^ site_hash) + call);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  const std::string copy(s);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(copy.c_str(), &end, 10);
  if (errno != 0 || end != copy.c_str() + copy.size() || copy[0] == '-') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(std::string_view s, double* out) {
  if (s.empty()) return false;
  const std::string copy(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(copy.c_str(), &end);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = v;
  return true;
}

}  // namespace

struct Registry::Site {
  SiteConfig cfg;
  std::uint64_t name_hash = 0;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> triggers{0};
  obs::Counter* metric = nullptr;
};

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

std::shared_ptr<const std::map<std::string, std::shared_ptr<Registry::Site>, std::less<>>>
Registry::sites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sites_;
}

std::string Registry::configure(std::string_view spec) {
  auto parsed = std::make_shared<std::map<std::string, std::shared_ptr<Site>, std::less<>>>();
  std::uint64_t seed = 0;
  for (std::string_view entry : util::split(spec, ',')) {
    entry = util::trim(entry);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return "fault spec entry '" + std::string(entry) + "' is not site=rate";
    }
    const std::string name(util::trim(entry.substr(0, eq)));
    std::string_view value = util::trim(entry.substr(eq + 1));
    if (name == "seed") {
      std::uint64_t parsed_seed = 0;
      if (!parse_u64(value, &parsed_seed)) {
        return "fault spec seed '" + std::string(value) + "' is not an unsigned integer";
      }
      seed = parsed_seed;
      continue;
    }

    auto site = std::make_shared<Site>();
    site->name_hash = util::fnv1a(name);
    // Peel `:param` then `#max` off the tail: site=rate[#max][:param].
    if (const std::size_t colon = value.find(':'); colon != std::string_view::npos) {
      const std::string_view param = util::trim(value.substr(colon + 1));
      if (!parse_double(param, &site->cfg.param)) {
        return "fault spec param '" + std::string(param) + "' for site " + name +
               " is not a number";
      }
      site->cfg.has_param = true;
      value = util::trim(value.substr(0, colon));
    }
    if (const std::size_t hash = value.find('#'); hash != std::string_view::npos) {
      const std::string_view max = util::trim(value.substr(hash + 1));
      if (!parse_u64(max, &site->cfg.max_triggers)) {
        return "fault spec trigger cap '" + std::string(max) + "' for site " + name +
               " is not an unsigned integer";
      }
      value = util::trim(value.substr(0, hash));
    }
    if (const std::size_t slash = value.find('/'); slash != std::string_view::npos) {
      // `1/N`: fire deterministically on every Nth call.
      const std::string_view num = util::trim(value.substr(0, slash));
      const std::string_view den = util::trim(value.substr(slash + 1));
      if (num != "1" || !parse_u64(den, &site->cfg.every_nth) ||
          site->cfg.every_nth == 0) {
        return "fault spec rate '" + std::string(value) + "' for site " + name +
               " is not 1/N with N >= 1";
      }
    } else {
      if (!parse_double(value, &site->cfg.rate) || !(site->cfg.rate >= 0.0) ||
          !(site->cfg.rate <= 1.0)) {
        return "fault spec rate '" + std::string(value) + "' for site " + name +
               " is not a probability in [0,1]";
      }
    }
    site->metric = &obs::counter("faults." + name);
    (*parsed)[name] = std::move(site);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = seed;
  if (parsed->empty()) {
    sites_.reset();
    g_enabled.store(false, std::memory_order_relaxed);
  } else {
    sites_ = std::move(parsed);
    g_enabled.store(true, std::memory_order_relaxed);
  }
  return {};
}

std::string Registry::configure_from_env() {
  const char* spec = std::getenv("PDN3D_FAULTS");
  if (spec == nullptr) {
    reset();
    return {};
  }
  return configure(spec);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.reset();
  seed_ = 0;
  g_enabled.store(false, std::memory_order_relaxed);
}

bool Registry::enabled() const noexcept { return g_enabled.load(std::memory_order_relaxed); }

bool Registry::should_fire(std::string_view site_name) {
  if (!enabled()) return false;
  const auto snapshot = sites();
  if (!snapshot) return false;
  const auto it = snapshot->find(site_name);
  if (it == snapshot->end()) return false;
  Site& site = *it->second;

  const std::uint64_t call = site.calls.fetch_add(1, std::memory_order_relaxed) + 1;
  const SiteConfig& cfg = site.cfg;
  if (cfg.max_triggers != 0 &&
      site.triggers.load(std::memory_order_relaxed) >= cfg.max_triggers) {
    return false;
  }
  bool fire = false;
  if (cfg.every_nth > 0) {
    fire = call % cfg.every_nth == 0;
  } else {
    std::uint64_t seed = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seed = seed_;
    }
    fire = decision_u01(seed, site.name_hash, call) < cfg.rate;
  }
  if (!fire) return false;
  const std::uint64_t trigger = site.triggers.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cfg.max_triggers != 0 && trigger > cfg.max_triggers) {
    // Lost the race against the cap with another thread: undo.
    site.triggers.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  site.metric->add(1);
  return true;
}

double Registry::param(std::string_view site_name, double fallback) const {
  const auto snapshot = sites();
  if (!snapshot) return fallback;
  const auto it = snapshot->find(site_name);
  if (it == snapshot->end() || !it->second->cfg.has_param) return fallback;
  return it->second->cfg.param;
}

std::uint64_t Registry::triggers(std::string_view site_name) const {
  const auto snapshot = sites();
  if (!snapshot) return 0;
  const auto it = snapshot->find(site_name);
  return it == snapshot->end() ? 0 : it->second->triggers.load(std::memory_order_relaxed);
}

std::vector<SiteStats> Registry::stats() const {
  std::vector<SiteStats> out;
  const auto snapshot = sites();
  if (!snapshot) return out;
  for (const auto& [name, site] : *snapshot) {
    out.push_back({name, site->calls.load(std::memory_order_relaxed),
                   site->triggers.load(std::memory_order_relaxed)});
  }
  return out;
}

std::uint64_t Registry::seed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seed_;
}

bool should_fire(std::string_view site) { return Registry::instance().should_fire(site); }

void maybe_stall(std::string_view site, double default_ms) {
  auto& registry = Registry::instance();
  if (!registry.should_fire(site)) return;
  const double total_ms = registry.param(site, default_ms);
  if (!(total_ms > 0.0)) return;
  // Sleep in 1 ms slices so a cancellation request (watchdog) interrupts the
  // stall instead of riding it out.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(total_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (exec::cancellation_requested()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void maybe_throw_alloc(std::string_view site) {
  if (Registry::instance().should_fire(site)) throw std::bad_alloc();
}

}  // namespace pdn3d::faults
