/**
 * @file
 * Test helpers for the one online restore path: open serialized v6
 * image bytes, or flatten an in-memory artifact into an opened image
 * with its model's tokenizer merges.
 */

#ifndef MEDUSA_TESTS_TEST_IMAGE_H
#define MEDUSA_TESTS_TEST_IMAGE_H

#include <utility>
#include <vector>

#include "common/logging.h"
#include "llm/tokenizer.h"
#include "medusa/artifact.h"
#include "medusa/image.h"

namespace medusa::test {

/** Open a copy of @p bytes; aborts on a decode failure. */
inline core::MaterializedImage
openImage(std::vector<u8> bytes)
{
    auto image = core::MaterializedImage::open(std::move(bytes));
    MEDUSA_CHECK(image.isOk(), "image open: " << image.status().toString());
    return std::move(image).value();
}

/** Flatten @p artifact into an opened image; aborts on failure. */
inline core::MaterializedImage
imageOf(const core::Artifact &artifact)
{
    auto bytes = core::buildImageBytes(
        artifact, llm::trainModelTokenizer(artifact.model_seed).merges());
    MEDUSA_CHECK(bytes.isOk(), "image build: " << bytes.status().toString());
    return openImage(std::move(bytes).value());
}

} // namespace medusa::test

#endif // MEDUSA_TESTS_TEST_IMAGE_H
