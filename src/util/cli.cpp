#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/require.hpp"

namespace fbt {

Cli::Cli(int argc, const char* const* argv) {
  require(argc >= 1, "Cli: argc must be >= 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  require(end != nullptr && *end == '\0', "Cli: flag --" + name,
          "expects an integer, got '" + it->second + "'");
  return value;
}

std::int64_t Cli::get_int_in(const std::string& name, std::int64_t fallback,
                             std::int64_t min, std::int64_t max) const {
  std::int64_t value = fallback;
  try {
    value = get_int(name, fallback);
  } catch (const Error&) {
    std::fprintf(stderr, "%s: --%s expects an integer, got '%s'\n",
                 program_.c_str(), name.c_str(), get(name, "").c_str());
    std::exit(2);
  }
  if (value < min || value > max) {
    std::fprintf(stderr, "%s: --%s must be in [%lld, %lld], got %lld\n",
                 program_.c_str(), name.c_str(), static_cast<long long>(min),
                 static_cast<long long>(max), static_cast<long long>(value));
    std::exit(2);
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  require(end != nullptr && *end == '\0', "Cli: flag --" + name,
          "expects a number, got '" + it->second + "'");
  return value;
}

}  // namespace fbt
