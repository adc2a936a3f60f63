#include "armvm/program.h"

#include <stdexcept>
#include <utility>

namespace eccm0::armvm {

Program::Program(std::vector<std::uint16_t> code,
                 std::map<std::string, std::uint32_t> symbols)
    : code_(std::move(code)),
      symbols_(std::move(symbols)),
      cache_(predecode(code_)),
      threaded_(build_threaded_image(cache_, symbols_)) {}

std::uint32_t Program::entry(const std::string& label) const {
  const auto it = symbols_.find(label);
  if (it == symbols_.end()) {
    throw std::out_of_range("Program: no symbol '" + label + "'");
  }
  return it->second;
}

ProgramRef make_program(std::vector<std::uint16_t> code,
                        std::map<std::string, std::uint32_t> symbols) {
  return std::make_shared<const Program>(std::move(code), std::move(symbols));
}

}  // namespace eccm0::armvm
