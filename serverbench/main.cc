// serverbench: seeded, closed-loop registrar traffic replayed against an
// in-process QueryServer, every answer checked against an independent
// oracle. See README.md in this directory; run.py is the entry point.
//
//   serverbench --workload NAME --seed N --seconds S --trace 0|1
//               [--param key=value ...] [--workdir DIR]
//   serverbench --fingerprint [--seed N --seconds S --param ...]
//   serverbench --emit-protocol OPS --out DIR [--seed N --param ...]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

#include "base/string_util.h"
#include "driver.h"

namespace {

using serverbench::RunConfig;

int Usage(const std::string& why) {
  std::fprintf(stderr, "serverbench: %s (see serverbench/README.md)\n",
               why.c_str());
  return 2;
}

/// Applies one `key=value` workload parameter; false on a bad key/value.
bool SetParam(RunConfig* c, const std::string& kv, std::string* err) {
  size_t eq = kv.find('=');
  if (eq == std::string::npos) {
    *err = "--param needs key=value, got " + kv;
    return false;
  }
  std::string key = kv.substr(0, eq), value = kv.substr(eq + 1);
  serverbench::RegistrarConfig& r = c->registrar;
  auto as_int = [&](auto* field) {
    auto v = hypo::ParseInt(value, 0, 1LL << 40);
    if (!v.ok()) return false;
    *field = static_cast<std::remove_pointer_t<decltype(field)>>(*v);
    return true;
  };
  auto as_double = [&](double* field) {
    char* end = nullptr;
    *field = std::strtod(value.c_str(), &end);
    return end != value.c_str() && *end == '\0' && *field >= 0;
  };
  const std::map<std::string, std::function<bool()>> setters = {
      {"engine", [&] { c->engine = value; return value == "tabled" || value == "bottomup"; }},
      {"max_steps", [&] { return as_int(&c->max_steps) && c->max_steps > 0; }},
      {"checkpoint_every", [&] { return as_int(&c->checkpoint_every); }},
      {"prefill_commits", [&] { return as_int(&c->prefill_commits); }},
      {"nominal_ops_per_s", [&] { return as_double(&c->nominal_ops_per_s); }},
      {"min_per_kind", [&] { return as_int(&c->min_per_kind); }},
      {"students", [&] { return as_int(&r.students) && r.students > 0; }},
      {"courses", [&] { return as_int(&r.courses) && r.courses >= serverbench::kMinCourses; }},
      {"grad", [&] { return as_double(&r.grad); }},
      {"open", [&] { return as_double(&r.open); }},
      {"needs", [&] { return as_double(&r.needs); }},
      {"whatif_grad", [&] { return as_double(&r.whatif_grad); }},
      {"whatif_open", [&] { return as_double(&r.whatif_open); }},
      {"commit", [&] { return as_double(&r.commit); }},
      {"enroll", [&] { return as_double(&r.enroll); }},
      {"drop", [&] { return as_double(&r.drop); }},
      {"new_student", [&] { return as_double(&r.new_student); }},
      {"prereq_edit", [&] { return as_double(&r.prereq_edit); }},
  };
  auto it = setters.find(key);
  if (it == setters.end()) {
    *err = "unknown parameter " + key;
    return false;
  }
  if (!it->second()) {
    *err = "bad value for " + key + ": " + value;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string mode = "run", out_dir;
  int64_t protocol_ops = 0;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--fingerprint") {
      mode = "fingerprint";
      continue;
    }
    if (i + 1 >= argc) return Usage(flag + " needs a value");
    std::string value = argv[++i];
    std::string err;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      auto v = hypo::ParseInt(value, 0, 1LL << 62);
      if (!v.ok()) return Usage("bad --seed " + value);
      config.seed = static_cast<uint64_t>(*v);
    } else if (flag == "--seconds") {
      auto v = hypo::ParseInt(value, 1, 3600);
      if (!v.ok()) return Usage("bad --seconds " + value);
      config.seconds = static_cast<int>(*v);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--param") {
      if (!SetParam(&config, value, &err)) return Usage(err);
    } else if (flag == "--emit-protocol") {
      auto v = hypo::ParseInt(value, 1, 1LL << 40);
      if (!v.ok()) return Usage("bad --emit-protocol " + value);
      mode = "protocol";
      protocol_ops = *v;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (config.engine.empty() || config.max_steps <= 0 ||
      config.registrar.students <= 0 || config.registrar.courses <= 0) {
    return Usage("engine, max_steps, students and courses must be set");
  }
  if (mode == "fingerprint") return serverbench::PrintFingerprint(config);
  if (mode == "protocol") {
    if (out_dir.empty()) return Usage("--emit-protocol needs --out DIR");
    return serverbench::EmitProtocol(config, protocol_ops, out_dir);
  }
  if (config.workload.empty()) return Usage("--workload is required");
  return serverbench::RunBenchmark(config);
}
