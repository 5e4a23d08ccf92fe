#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void JsonObject::number(const std::string& key, double value) {
  char buf[40];
  if (!std::isfinite(value)) value = 0;
  std::snprintf(buf, sizeof buf, "%.9g", value);
  fields_.emplace_back(key, buf);
}

void JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

void JsonObject::string(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_escape(value));
}

void JsonObject::strings(const std::string& key,
                         const std::vector<std::string>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) list += ", ";
    list += json_escape(values[i]);
  }
  fields_.emplace_back(key, list + "]");
}

void JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_escape(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
