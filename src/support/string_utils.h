/**
 * @file
 * Small string helpers used across the project.
 */
#ifndef SUPPORT_STRING_UTILS_H
#define SUPPORT_STRING_UTILS_H

#include <string>
#include <vector>

namespace repro {

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> splitString(const std::string &s, char sep);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** True if @p s ends with @p suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/** Strip leading and trailing whitespace. */
std::string trimString(const std::string &s);

/** Replace every occurrence of @p from in @p s with @p to. */
std::string replaceAll(std::string s, const std::string &from,
                       const std::string &to);

} // namespace repro

#endif // SUPPORT_STRING_UTILS_H
