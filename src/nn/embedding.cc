#include "nn/embedding.h"

#include "nn/init.h"

namespace awmoe {

EmbeddingTable::EmbeddingTable(int64_t vocab_size, int64_t dim, Rng* rng,
                               float init_stddev)
    : table_(NormalInit(vocab_size, dim, init_stddev, rng),
             /*requires_grad=*/true) {
  AWMOE_CHECK(vocab_size > 0 && dim > 0)
      << "EmbeddingTable shape " << vocab_size << "x" << dim;
}

Var EmbeddingTable::Forward(const std::vector<int64_t>& ids) const {
  return ag::GatherRows(table_, ids);
}

void EmbeddingTable::CollectParameters(std::vector<Var>* params) const {
  params->push_back(table_);
}

}  // namespace awmoe
