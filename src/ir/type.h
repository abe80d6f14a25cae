/**
 * @file
 * Type system for the SSA intermediate representation.
 *
 * Types are interned: structurally identical types are represented by the
 * same Type object, owned by a TypeContext. Pointer equality is therefore
 * type equality, exactly as in LLVM.
 */
#ifndef IR_TYPE_H
#define IR_TYPE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace repro::ir {

class TypeContext;

/** A first-class IR type: void, integer, floating point, pointer, array
 *  or function. */
class Type
{
  public:
    enum class Kind
    {
        Void,
        I1,
        I32,
        I64,
        Float,
        Double,
        Pointer,
        Array,
        Function,
    };

    Kind kind() const { return kind_; }

    bool isVoid() const { return kind_ == Kind::Void; }
    bool isI1() const { return kind_ == Kind::I1; }
    bool
    isInteger() const
    {
        return kind_ == Kind::I1 || kind_ == Kind::I32 ||
               kind_ == Kind::I64;
    }
    bool
    isFloatingPoint() const
    {
        return kind_ == Kind::Float || kind_ == Kind::Double;
    }
    bool isPointer() const { return kind_ == Kind::Pointer; }
    bool isArray() const { return kind_ == Kind::Array; }

    /** Element type for pointers and arrays; null otherwise. */
    Type *element() const { return element_; }

    /** Number of elements for array types. */
    uint64_t arraySize() const { return arraySize_; }

    /** Return type for function types. */
    Type *returnType() const { return element_; }

    /** Parameter types for function types. */
    const std::vector<Type *> &params() const { return params_; }

    /** Size in bytes when stored in interpreter memory. */
    uint64_t sizeInBytes() const;

    /** Render in LLVM-like syntax, e.g. "double*", "[8 x i32]". */
    std::string str() const;

  private:
    friend class TypeContext;
    Type(Kind kind, Type *element, uint64_t array_size,
         std::vector<Type *> params)
        : kind_(kind), element_(element), arraySize_(array_size),
          params_(std::move(params))
    {}

    Kind kind_;
    Type *element_ = nullptr;
    uint64_t arraySize_ = 0;
    std::vector<Type *> params_;
};

/**
 * Owns and interns all Type objects of one Module.
 */
class TypeContext
{
  public:
    TypeContext();
    TypeContext(const TypeContext &) = delete;
    TypeContext &operator=(const TypeContext &) = delete;

    Type *voidTy() { return voidTy_; }
    Type *i1Ty() { return i1Ty_; }
    Type *i32Ty() { return i32Ty_; }
    Type *i64Ty() { return i64Ty_; }
    Type *floatTy() { return floatTy_; }
    Type *doubleTy() { return doubleTy_; }

    Type *pointerTo(Type *pointee);
    Type *arrayOf(Type *element, uint64_t count);
    Type *functionTy(Type *ret, std::vector<Type *> params);

    /** This context's type structurally equal to @p foreign's. */
    Type *import(const Type *foreign);

  private:
    Type *make(Type::Kind kind, Type *element, uint64_t array_size,
               std::vector<Type *> params);

    std::vector<std::unique_ptr<Type>> all_;
    std::map<Type *, Type *> pointerCache_;
    std::map<std::pair<Type *, uint64_t>, Type *> arrayCache_;
    std::map<std::pair<Type *, std::vector<Type *>>, Type *> funcCache_;

    Type *voidTy_;
    Type *i1Ty_;
    Type *i32Ty_;
    Type *i64Ty_;
    Type *floatTy_;
    Type *doubleTy_;
};

} // namespace repro::ir

#endif // IR_TYPE_H
