#include "asic/phv.hpp"

#include <stdexcept>
#include <string>

namespace sf::asic {

void Phv::reject(FieldId id, unsigned bits) {
  if (bits == 0 || bits > 64) {
    throw std::invalid_argument("PHV field width must be 1..64 bits");
  }
  throw std::out_of_range("PHV field id " + std::to_string(id) +
                          " at or past kMaxPhvFields");
}

void Phv::over_budget(FieldId id) {
  throw std::length_error("PHV budget exceeded: field " + std::to_string(id));
}

}  // namespace sf::asic
