/**
 * @file
 * PointerMap: pointer keys to non-negative ints in one flat table.
 */
#ifndef SUPPORT_POINTER_MAP_H
#define SUPPORT_POINTER_MAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/diagnostics.h"

namespace repro {

/**
 * Maps pointers to non-negative ints (typically dense ids) with open
 * addressing and linear probing in one contiguous array. Keys are
 * compared, never dereferenced, so asking about a dangling or null
 * pointer is safe. The IR's passes ask about every block or value of
 * a function; a node-based std::unordered_map scatters its entries
 * over the heap, and on large functions each probe then costs a cache
 * and TLB miss.
 */
class PointerMap
{
  public:
    /** Make room for @p n keys in all without growing. */
    void
    reserve(size_t n)
    {
        size_t want = 16;
        while (want < 2 * n)
            want *= 2;
        if (want > slots_.size())
            rehash(want);
    }

    /** Map @p key (not null) to @p value (>= 0) unless already
     *  mapped; returns whether it was inserted. */
    bool
    insert(const void *key, int value)
    {
        reproAssert(key && value >= 0, "PointerMap: bad entry");
        if (2 * (size_ + 1) > slots_.size())
            reserve(size_ + 1);
        size_t i = slotOf(key);
        while (slots_[i].key) {
            if (slots_[i].key == key)
                return false;
            i = (i + 1) & (slots_.size() - 1);
        }
        slots_[i] = {key, value};
        ++size_;
        return true;
    }

    /** The value mapped to @p key, or -1 when it has none. */
    int
    find(const void *key) const
    {
        if (slots_.empty())
            return -1;
        for (size_t i = slotOf(key); slots_[i].key;
             i = (i + 1) & (slots_.size() - 1)) {
            if (slots_[i].key == key)
                return slots_[i].value;
        }
        return -1;
    }

    bool contains(const void *key) const { return find(key) >= 0; }
    size_t size() const { return size_; }

  private:
    struct Slot
    {
        const void *key = nullptr;
        int value = -1;
    };

    /** Fibonacci hashing of the address above its alignment bits. */
    size_t
    slotOf(const void *key) const
    {
        uint64_t h = static_cast<uint64_t>(
                         reinterpret_cast<uintptr_t>(key) >> 4) *
                     0x9E3779B97F4A7C15ull;
        return static_cast<size_t>(h >> shift_);
    }

    void
    rehash(size_t capacity)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(capacity, Slot{});
        shift_ = 64;
        for (size_t c = capacity; c > 1; c /= 2)
            --shift_;
        size_ = 0;
        for (const Slot &s : old) {
            if (s.key)
                insert(s.key, s.value);
        }
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 64;
    size_t size_ = 0;
};

} // namespace repro

#endif // SUPPORT_POINTER_MAP_H
