#include "sim/event_log.hpp"

#include "sim/table_printer.hpp"

namespace sf::sim {

void EventLog::append(double time, std::string category,
                      std::string message) {
  entries_.push_back(Entry{time, std::move(category), std::move(message)});
}

std::vector<EventLog::Entry> EventLog::entries(
    const std::string& category) const {
  std::vector<Entry> out;
  for (const Entry& entry : entries_) {
    if (entry.category == category) out.push_back(entry);
  }
  return out;
}

std::size_t EventLog::count(const std::string& category) const {
  std::size_t n = 0;
  for (const Entry& entry : entries_) {
    if (entry.category == category) ++n;
  }
  return n;
}

std::string EventLog::to_string() const {
  std::string out;
  for (const Entry& entry : entries_) {
    out += format("[t=%.3f] ", entry.time);
    out += entry.category;
    out += ": ";
    out += entry.message;
    out += '\n';
  }
  return out;
}

std::uint64_t EventLog::fingerprint() const {
  const std::string rendered = to_string();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : rendered) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace sf::sim
