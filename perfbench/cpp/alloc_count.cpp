#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
    ++t_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    ++t_allocations;
    const auto alignment = static_cast<std::size_t>(align);
    void* p = nullptr;
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*)
                                                     : alignment,
                       size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

namespace perfbench {

std::uint64_t thread_allocations() noexcept { return t_allocations; }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
