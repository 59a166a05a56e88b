// Textual MIR emission. The output parses back via ir/parser.h (round-trip
// is covered by ParserTest.RoundTripThroughPrinter and RoundTripProperty in
// tests/ir_test.cpp).
#pragma once

#include <iosfwd>
#include <string>

#include "ir/module.h"

namespace deepmc::ir {

void print_module(const Module& m, std::ostream& os);
void print_function(const Function& f, std::ostream& os);
void print_instruction(const Instruction& inst, std::ostream& os);

std::string to_string(const Module& m);
std::string to_string(const Instruction& inst);

}  // namespace deepmc::ir
