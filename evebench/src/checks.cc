#include "checks.h"

#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>

namespace evebench {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when `text` mentions relation.attribute as a whole identifier.
bool MentionsAttribute(const std::string& text, const std::string& relation,
                       const std::string& attribute) {
  const std::string needle = relation + "." + attribute;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    const size_t end = pos + needle.size();
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const bool right_ok = end == text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

}  // namespace

bool CheckChangeReport(const Step& step, const std::string& output,
                       size_t pool_size, bool allow_disabled,
                       std::string* why) {
  std::set<std::string> affected;
  size_t unaffected = 0;
  bool saw_change = false;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("change: ", 0) == 0) saw_change = true;
    if (line.rfind("  view ", 0) != 0) continue;
    const size_t colon = line.find(": ", 7);
    if (colon == std::string::npos) continue;
    const std::string name = line.substr(7, colon - 7);
    const std::string verdict = line.substr(colon + 2);
    if (verdict.rfind("unaffected", 0) == 0) {
      ++unaffected;
    } else if (verdict.rfind("rewritten", 0) == 0 ||
               (allow_disabled && verdict.rfind("DISABLED", 0) == 0)) {
      affected.insert(name);
    } else {
      *why = "view " + name + " not rewritten: " + verdict;
      return false;
    }
  }
  if (!saw_change) {
    *why = "no change report in response";
    return false;
  }
  const std::set<std::string> predicted(step.affected.begin(),
                                        step.affected.end());
  if (affected != predicted) {
    *why = "affected " + std::to_string(affected.size()) +
           " views, predicted " + std::to_string(predicted.size());
    return false;
  }
  if (affected.size() + unaffected != pool_size) {
    *why = "report lists " + std::to_string(affected.size() + unaffected) +
           " views of " + std::to_string(pool_size);
    return false;
  }
  return true;
}

bool CheckRenamedView(const Step& step, const std::string& output,
                      std::string* why) {
  // Only the definition counts: the history lines after it name every
  // earlier rename, old names included.
  const std::string definition = output.substr(0, output.find("\n  history:"));
  if (!MentionsAttribute(definition, step.relation, step.new_attribute)) {
    *why = step.read_view + " does not show " + step.relation + "." +
           step.new_attribute;
    return false;
  }
  if (MentionsAttribute(definition, step.relation, step.old_attribute)) {
    *why = step.read_view + " still shows " + step.relation + "." +
           step.old_attribute;
    return false;
  }
  return true;
}

bool CheckDryRunHeader(const std::string& output, std::string* why) {
  if (output.rfind("dry-run against version ", 0) != 0) {
    *why = "response does not start with the dry-run header";
    return false;
  }
  return true;
}

namespace {

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string MetricLine(const Metric& metric, const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-32s %14.4f %-6s", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  std::string line = buf;
  if (!note.empty()) line += "  " + note;
  return line;
}

}  // namespace evebench
