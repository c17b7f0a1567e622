//===- SanitizerTestUtil.h - Sanitizer detection for tests ------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines DYNDIST_UNDER_SANITIZER when the translation unit is built with
/// AddressSanitizer, ThreadSanitizer or MemorySanitizer: their runtimes own
/// operator new and shadow memory, so peak-RSS and allocation-count checks
/// mean nothing there and are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_TESTS_SANITIZERTESTUTIL_H
#define DYNDIST_TESTS_SANITIZERTESTUTIL_H

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DYNDIST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
#define DYNDIST_UNDER_SANITIZER 1
#endif
#endif

#endif // DYNDIST_TESTS_SANITIZERTESTUTIL_H
