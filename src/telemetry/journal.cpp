#include "telemetry/journal.hpp"

#include "sim/table_printer.hpp"

namespace sf::telemetry {

EventJournal::EventJournal(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void EventJournal::record(std::string category, std::string message,
                          double time) {
  Event event{++sequence_, time, std::move(category), std::move(message)};
  if (capacity_ == 0 || ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  ++overwritten_;
}

std::vector<Event> EventJournal::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(at(i));
  }
  return out;
}

std::vector<Event> EventJournal::events(const std::string& category) const {
  std::vector<Event> out;
  for (const Event& event : events()) {
    if (event.category == category) out.push_back(event);
  }
  return out;
}

void EventJournal::clear() {
  ring_.clear();
  head_ = 0;
  overwritten_ = 0;
}

std::string EventJournal::to_string() const {
  std::string out;
  if (overwritten_ > 0) {
    out += sim::format("(%llu older events overwritten)\n",
                       static_cast<unsigned long long>(overwritten_));
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Event& event = at(i);
    out += sim::format("[t=%.3f] ", event.time);
    out += event.category;
    out += ": ";
    out += event.message;
    out += '\n';
  }
  return out;
}

}  // namespace sf::telemetry
