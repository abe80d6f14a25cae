/**
 * @file
 * Recursive-descent parser for MiniC.
 */
#ifndef FRONTEND_PARSER_H
#define FRONTEND_PARSER_H

#include <memory>

#include "frontend/ast.h"
#include "frontend/lexer.h"

namespace repro::frontend {

/**
 * Deepest nesting parseMiniC accepts, counted two ways: the parser's
 * own recursion (nested statements and sub-expressions, parentheses
 * included) and the depth of every expression tree it builds, left-deep
 * operator chains included. Deeper input is a located parse error, not
 * a stack overflow in the parser, in codegen or in the tree's
 * destructor.
 */
constexpr int kMaxNesting = 1000;

/**
 * Parse @p source into a TranslationUnit. Returns null and fills
 * @p diags when the program is malformed or nests deeper than
 * kMaxNesting.
 */
std::unique_ptr<TranslationUnit> parseMiniC(const std::string &source,
                                            DiagEngine &diags);

} // namespace repro::frontend

#endif // FRONTEND_PARSER_H
