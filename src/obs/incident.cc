#include "src/obs/incident.h"

#include <cstdio>
#include <filesystem>

#include "src/common/text_file.h"

namespace tiger {

namespace {

// Escapes the handful of characters our reason strings could plausibly carry
// into a JSON string literal.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string RenderIncidentManifest(const IncidentManifest& manifest) {
  char buf[256];
  std::string out = "{\n  \"schema\": \"tiger-incident-v1\",\n";
  out += "  \"reason\": \"" + JsonEscape(manifest.reason) + "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"sim_time_us\": %lld,\n  \"seed\": %llu,\n",
                static_cast<long long>(manifest.sim_time_us),
                static_cast<unsigned long long>(manifest.seed));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"cubs\": %d,\n  \"shards\": %d,\n", manifest.cubs,
                manifest.shards);
  out += buf;
  out += "  \"engine\": \"" + JsonEscape(manifest.engine) + "\",\n";
  if (!manifest.slo_json.empty()) {
    // The SLO state is already a rendered JSON object; splice it verbatim.
    out += "  \"slo\": " + manifest.slo_json;
    if (!out.empty() && out.back() == '\n') {
      out.pop_back();
    }
    out += ",\n";
  }
  out += "  \"files\": [";
  for (size_t i = 0; i < manifest.files.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(manifest.files[i]) + "\"";
  }
  out += "]\n}\n";
  return out;
}

bool WriteIncidentBundle(const std::string& dir, const std::vector<IncidentFile>& files) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return false;
  }
  bool ok = true;
  for (const IncidentFile& file : files) {
    ok = WriteTextFile(dir + "/" + file.name, file.contents) && ok;
  }
  return ok;
}

}  // namespace tiger
