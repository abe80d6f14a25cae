#include "frontend/lexer.h"

#include <string_view>

namespace repro::frontend {

namespace {

constexpr std::string_view kKeywords[] = {
    "int", "long", "float", "double", "void", "for", "while", "do",
    "if", "else", "return", "break", "continue", "const",
};

bool
isKeyword(std::string_view text)
{
    for (std::string_view k : kKeywords) {
        if (k == text)
            return true;
    }
    return false;
}

bool isDigit(char c) { return c >= '0' && c <= '9'; }

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool isIdentChar(char c) { return isIdentStart(c) || isDigit(c); }

bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
           c == '\f' || c == '\r';
}

/**
 * Length of the punctuator starting with @p c (longest match first,
 * so ">>=" wins over ">>" and ">"); 0 when @p c starts none. @p d
 * and @p e are the next two characters, '\0' past the end.
 */
size_t
punctLength(char c, char d, char e)
{
    switch (c) {
      case '<':
      case '>':
        if (d == c)
            return e == '=' ? 3 : 2;
        return d == '=' ? 2 : 1;
      case '.':
        return d == '.' && e == '.' ? 3 : 1;
      case '-':
        return d == '-' || d == '=' || d == '>' ? 2 : 1;
      case '+':
        return d == '+' || d == '=' ? 2 : 1;
      case '&':
      case '|':
        return d == c ? 2 : 1;
      case '=':
      case '!':
      case '*':
      case '/':
      case '%':
        return d == '=' ? 2 : 1;
      case '^': case '~': case '(': case ')': case '[': case ']':
      case '{': case '}': case ',': case ';': case '?': case ':':
        return 1;
      default:
        return 0;
    }
}

/**
 * True when @p text is a whole number literal: digits with at most one
 * '.', an optional exponent with digits, then either an 'f'/'F' or a
 * run of 'l'/'L'/'u'/'U' suffixes. Anything else ("1.2.3", "1e",
 * "1u5") would be read only partly by the conversion.
 */
bool
wellFormedNumber(std::string_view text)
{
    size_t i = 0, digits = 0;
    while (i < text.size() && isDigit(text[i]))
        ++i, ++digits;
    if (i < text.size() && text[i] == '.') {
        ++i;
        while (i < text.size() && isDigit(text[i]))
            ++i, ++digits;
    }
    if (digits == 0)
        return false;
    if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
        ++i;
        if (i < text.size() && (text[i] == '+' || text[i] == '-'))
            ++i;
        if (i == text.size() || !isDigit(text[i]))
            return false;
        while (i < text.size() && isDigit(text[i]))
            ++i;
    }
    if (i < text.size() && (text[i] == 'f' || text[i] == 'F'))
        return i + 1 == text.size();
    while (i < text.size() && (text[i] == 'l' || text[i] == 'L' ||
                               text[i] == 'u' || text[i] == 'U'))
        ++i;
    return i == text.size();
}

} // namespace

std::vector<Token>
lexMiniC(const std::string &source, DiagEngine &diags)
{
    std::vector<Token> tokens;
    tokens.reserve(source.size() / 4 + 1);
    const size_t size = source.size();
    size_t pos = 0;
    int line = 1, col = 1;

    auto at = [&](size_t i) { return i < size ? source[i] : '\0'; };
    // Consume source[pos, end), which may span lines.
    auto skipTo = [&](size_t end) {
        for (; pos < end; ++pos) {
            if (source[pos] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
    };
    auto emit = [&](TokKind kind, size_t start) {
        tokens.push_back(
            {kind, source.substr(start, pos - start), {line, col}});
        col += static_cast<int>(pos - start);
    };

    while (pos < size) {
        char c = source[pos];
        if (isSpace(c)) {
            skipTo(pos + 1);
            continue;
        }
        // Comments; an unterminated block comment runs to the end.
        if (c == '/' && at(pos + 1) == '/') {
            size_t end = source.find('\n', pos);
            skipTo(end == std::string::npos ? size : end);
            continue;
        }
        if (c == '/' && at(pos + 1) == '*') {
            size_t end = source.find("*/", pos + 2);
            skipTo(end == std::string::npos ? size : end + 2);
            continue;
        }
        const size_t start = pos;
        // Identifiers and keywords.
        if (isIdentStart(c)) {
            while (pos < size && isIdentChar(source[pos]))
                ++pos;
            std::string_view text(source.data() + start, pos - start);
            emit(isKeyword(text) ? TokKind::Keyword : TokKind::Identifier,
                 start);
            continue;
        }
        // Numbers.
        if (isDigit(c) || (c == '.' && isDigit(at(pos + 1)))) {
            bool isFloat = false;
            while (pos < size) {
                char d = source[pos];
                if (isDigit(d)) {
                    ++pos;
                } else if (d == '.') {
                    isFloat = true;
                    ++pos;
                } else if (d == 'e' || d == 'E') {
                    isFloat = true;
                    ++pos;
                    if (at(pos) == '+' || at(pos) == '-')
                        ++pos;
                } else if (d == 'f' || d == 'F') {
                    isFloat = true;
                    ++pos;
                    break;
                } else if (d == 'L' || d == 'l' || d == 'u' ||
                           d == 'U') {
                    ++pos;
                } else {
                    break;
                }
            }
            std::string_view text(source.data() + start, pos - start);
            if (!wellFormedNumber(text)) {
                diags.error({line, col}, "malformed number literal '" +
                                             std::string(text) + "'");
            }
            emit(isFloat ? TokKind::FloatLiteral : TokKind::IntLiteral,
                 start);
            continue;
        }
        // Punctuation.
        if (size_t len = punctLength(c, at(pos + 1), at(pos + 2))) {
            pos += len;
            emit(TokKind::Punct, start);
            continue;
        }
        diags.error({line, col},
                    std::string("unexpected character '") + c + "'");
        skipTo(pos + 1);
    }
    tokens.push_back({TokKind::End, "", {line, col}});
    return tokens;
}

} // namespace repro::frontend
