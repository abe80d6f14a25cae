/**
 * @file
 * Small string helpers used across the project.
 */
#ifndef SUPPORT_STRING_UTILS_H
#define SUPPORT_STRING_UTILS_H

#include <limits>
#include <string>
#include <vector>

namespace repro {

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> splitString(const std::string &s, char sep);

/** Strip leading and trailing whitespace. */
std::string trimString(const std::string &s);

/** Replace every occurrence of @p from in @p s with @p to. */
std::string replaceAll(std::string s, const std::string &from,
                       const std::string &to);

/**
 * Parse @p s as an unsigned decimal: one or more digits and nothing
 * else (no sign, no whitespace), with a value of at most @p max. On
 * failure returns false and leaves @p out untouched.
 */
template <typename T>
bool
parseDecimal(const std::string &s, T *out,
             T max = std::numeric_limits<T>::max())
{
    if (s.empty())
        return false;
    T value = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        const T digit = static_cast<T>(c - '0');
        if (digit > max || value > (max - digit) / 10)
            return false;
        value = static_cast<T>(value * 10 + digit);
    }
    *out = value;
    return true;
}

} // namespace repro

#endif // SUPPORT_STRING_UTILS_H
