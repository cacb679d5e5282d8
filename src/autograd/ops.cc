#include "autograd/ops.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "parallel/parallel_for.h"
#include "tensor/check.h"

namespace e2gcl {
namespace ag {

using internal_autograd::Node;

namespace {

/// Creates an op node: value, parents, backward closure. requires_grad
/// is inherited from the parents so gradient flows through intermediate
/// results even when they are not parameters themselves.
Var MakeNode(Matrix value, std::vector<Var> parents,
             std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  for (const Var& p : parents) {
    E2GCL_CHECK(p.defined());
    node->parents.push_back(p.node());
    node->requires_grad = node->requires_grad || p.node()->requires_grad;
  }
  if (node->requires_grad) node->backward = std::move(backward);
  return Var(std::move(node));
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Matrix value = e2gcl::MatMul(a.value(), b.value());
  return MakeNode(std::move(value), {a, b}, [](Node& n) {
    Node* pa = n.parents[0].get();
    Node* pb = n.parents[1].get();
    if (pa->requires_grad) {
      pa->AccumulateGrad(e2gcl::MatMulTransposedB(n.grad, pb->value));
    }
    if (pb->requires_grad) {
      pb->AccumulateGrad(e2gcl::MatMulTransposedA(pa->value, n.grad));
    }
  });
}

Var MatMulTransposedB(const Var& a, const Var& b) {
  Matrix value = e2gcl::MatMulTransposedB(a.value(), b.value());
  return MakeNode(std::move(value), {a, b}, [](Node& n) {
    Node* pa = n.parents[0].get();
    Node* pb = n.parents[1].get();
    // C = A B^T: dA = G B, dB = G^T A.
    if (pa->requires_grad) {
      pa->AccumulateGrad(e2gcl::MatMul(n.grad, pb->value));
    }
    if (pb->requires_grad) {
      pb->AccumulateGrad(e2gcl::MatMulTransposedA(n.grad, pa->value));
    }
  });
}

Var Spmm(std::shared_ptr<const CsrMatrix> s, const Var& x) {
  E2GCL_CHECK(s != nullptr);
  // The backward gathers over the transpose S carries; check for it
  // here, where the missing operand is made, not deep in Backward().
  E2GCL_CHECK_MSG(!x.requires_grad() || s->transpose() != nullptr,
                  "ag::Spmm: a differentiated operand must carry its "
                  "transpose (CsrMatrix::MarkSymmetric/CarryTranspose)");
  Matrix value = e2gcl::Spmm(*s, x.value());
  return MakeNode(std::move(value), {x}, [s](Node& n) {
    Node* px = n.parents[0].get();
    if (px->requires_grad) {
      px->AccumulateGrad(e2gcl::SpmmTransposedA(*s, n.grad));
    }
  });
}

Var Add(const Var& a, const Var& b) {
  Matrix value = e2gcl::Add(a.value(), b.value());
  return MakeNode(std::move(value), {a, b}, [](Node& n) {
    for (int i = 0; i < 2; ++i) n.parents[i]->AccumulateGrad(n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  Matrix value = e2gcl::Sub(a.value(), b.value());
  return MakeNode(std::move(value), {a, b}, [](Node& n) {
    n.parents[0]->AccumulateGrad(n.grad);
    if (n.parents[1]->requires_grad) {
      n.parents[1]->AccumulateGrad(e2gcl::Scale(n.grad, -1.0f));
    }
  });
}

Var Hadamard(const Var& a, const Var& b) {
  Matrix value = e2gcl::Hadamard(a.value(), b.value());
  return MakeNode(std::move(value), {a, b}, [](Node& n) {
    Node* pa = n.parents[0].get();
    Node* pb = n.parents[1].get();
    if (pa->requires_grad) {
      pa->AccumulateGrad(e2gcl::Hadamard(n.grad, pb->value));
    }
    if (pb->requires_grad) {
      pb->AccumulateGrad(e2gcl::Hadamard(n.grad, pa->value));
    }
  });
}

Var Scale(const Var& a, float alpha) {
  Matrix value = e2gcl::Scale(a.value(), alpha);
  return MakeNode(std::move(value), {a}, [alpha](Node& n) {
    n.parents[0]->AccumulateGrad(e2gcl::Scale(n.grad, alpha));
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  E2GCL_CHECK(bias.rows() == 1 && bias.cols() == a.cols());
  Matrix value = a.value();
  for (std::int64_t r = 0; r < value.rows(); ++r) {
    float* row = value.RowPtr(r);
    const float* b = bias.value().RowPtr(0);
    for (std::int64_t c = 0; c < value.cols(); ++c) row[c] += b[c];
  }
  return MakeNode(std::move(value), {a, bias}, [](Node& n) {
    n.parents[0]->AccumulateGrad(n.grad);
    if (n.parents[1]->requires_grad) {
      n.parents[1]->AccumulateGrad(e2gcl::ColSums(n.grad));
    }
  });
}

Var Relu(const Var& a) {
  Matrix value = a.value();
  ParallelFor(0, value.size(), std::int64_t{1} << 15,
              [&](std::int64_t ib, std::int64_t ie) {
                for (std::int64_t i = ib; i < ie; ++i) {
                  value.data()[i] = std::max(0.0f, value.data()[i]);
                }
              });
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Node* pa = n.parents[0].get();
    Matrix g = n.grad;
    ParallelFor(0, g.size(), std::int64_t{1} << 15,
                [&](std::int64_t ib, std::int64_t ie) {
                  for (std::int64_t i = ib; i < ie; ++i) {
                    if (pa->value.data()[i] <= 0.0f) g.data()[i] = 0.0f;
                  }
                });
    pa->AccumulateGrad(g);
  });
}

Var PRelu(const Var& a, const Var& slope) {
  E2GCL_CHECK(slope.rows() == 1 && slope.cols() == 1);
  const float s = slope.value()(0, 0);
  Matrix value = a.value();
  for (std::int64_t i = 0; i < value.size(); ++i) {
    if (value.data()[i] < 0.0f) value.data()[i] *= s;
  }
  return MakeNode(std::move(value), {a, slope}, [s](Node& n) {
    Node* pa = n.parents[0].get();
    Node* ps = n.parents[1].get();
    if (pa->requires_grad) {
      Matrix g = n.grad;
      for (std::int64_t i = 0; i < g.size(); ++i) {
        if (pa->value.data()[i] < 0.0f) g.data()[i] *= s;
      }
      pa->AccumulateGrad(g);
    }
    if (ps->requires_grad) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < n.grad.size(); ++i) {
        const float x = pa->value.data()[i];
        if (x < 0.0f) acc += static_cast<double>(n.grad.data()[i]) * x;
      }
      Matrix gs(1, 1);
      gs(0, 0) = static_cast<float>(acc);
      ps->AccumulateGrad(gs);
    }
  });
}

Var Sigmoid(const Var& a) {
  Matrix value = a.value();
  for (std::int64_t i = 0; i < value.size(); ++i) {
    value.data()[i] = 1.0f / (1.0f + std::exp(-value.data()[i]));
  }
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Matrix g = n.grad;
    for (std::int64_t i = 0; i < g.size(); ++i) {
      const float y = n.value.data()[i];
      g.data()[i] *= y * (1.0f - y);
    }
    n.parents[0]->AccumulateGrad(g);
  });
}

Var Tanh(const Var& a) {
  Matrix value = a.value();
  for (std::int64_t i = 0; i < value.size(); ++i) {
    value.data()[i] = std::tanh(value.data()[i]);
  }
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Matrix g = n.grad;
    for (std::int64_t i = 0; i < g.size(); ++i) {
      const float y = n.value.data()[i];
      g.data()[i] *= 1.0f - y * y;
    }
    n.parents[0]->AccumulateGrad(g);
  });
}

Var Exp(const Var& a) {
  Matrix value = a.value();
  for (std::int64_t i = 0; i < value.size(); ++i) {
    value.data()[i] = std::exp(value.data()[i]);
  }
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Matrix g = e2gcl::Hadamard(n.grad, n.value);
    n.parents[0]->AccumulateGrad(g);
  });
}

Var Log(const Var& a) {
  Matrix value = a.value();
  for (std::int64_t i = 0; i < value.size(); ++i) {
    E2GCL_CHECK_MSG(value.data()[i] > 0.0f, "Log of non-positive value");
    value.data()[i] = std::log(value.data()[i]);
  }
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Matrix g = n.grad;
    for (std::int64_t i = 0; i < g.size(); ++i) {
      g.data()[i] /= n.parents[0]->value.data()[i];
    }
    n.parents[0]->AccumulateGrad(g);
  });
}

Var NormalizeRowsL2(const Var& a, float eps) {
  Matrix value = e2gcl::NormalizeRowsL2(a.value(), eps);
  return MakeNode(std::move(value), {a}, [eps](Node& n) {
    // y = x / ||x||: dx = (g - (g . y) y) / ||x||, per row.
    Node* pa = n.parents[0].get();
    const Matrix& x = pa->value;
    const Matrix& y = n.value;
    Matrix g(x.rows(), x.cols());
    ParallelFor(0, x.rows(), GrainForCost(3 * x.cols()),
                [&](std::int64_t rb, std::int64_t re) {
                  for (std::int64_t r = rb; r < re; ++r) {
                    const float* xr = x.RowPtr(r);
                    const float* yr = y.RowPtr(r);
                    const float* gr = n.grad.RowPtr(r);
                    float* out = g.RowPtr(r);
                    double norm2 = 0.0;
                    for (std::int64_t c = 0; c < x.cols(); ++c) {
                      norm2 += static_cast<double>(xr[c]) * xr[c];
                    }
                    const float norm = static_cast<float>(std::sqrt(norm2));
                    if (norm <= eps) {
                      // Zero row passed through unchanged: identity gradient.
                      for (std::int64_t c = 0; c < x.cols(); ++c) {
                        out[c] = gr[c];
                      }
                      continue;
                    }
                    float dot = 0.0f;
                    for (std::int64_t c = 0; c < x.cols(); ++c) {
                      dot += gr[c] * yr[c];
                    }
                    const float inv = 1.0f / norm;
                    for (std::int64_t c = 0; c < x.cols(); ++c) {
                      out[c] = (gr[c] - dot * yr[c]) * inv;
                    }
                  }
                });
    pa->AccumulateGrad(g);
  });
}

Var Transpose(const Var& a) {
  Matrix value = e2gcl::Transpose(a.value());
  return MakeNode(std::move(value), {a}, [](Node& n) {
    n.parents[0]->AccumulateGrad(e2gcl::Transpose(n.grad));
  });
}

Var SumAll(const Var& a) {
  Matrix value(1, 1);
  value(0, 0) = e2gcl::SumAll(a.value());
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Node* pa = n.parents[0].get();
    Matrix g(pa->value.rows(), pa->value.cols(), n.grad(0, 0));
    pa->AccumulateGrad(g);
  });
}

Var MeanAll(const Var& a) {
  E2GCL_CHECK(a.value().size() > 0);
  Matrix value(1, 1);
  value(0, 0) = e2gcl::MeanAll(a.value());
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Node* pa = n.parents[0].get();
    const float scale = n.grad(0, 0) / static_cast<float>(pa->value.size());
    Matrix g(pa->value.rows(), pa->value.cols(), scale);
    pa->AccumulateGrad(g);
  });
}

Var MeanRows(const Var& a) {
  E2GCL_CHECK(a.rows() > 0);
  Matrix value = e2gcl::Scale(e2gcl::ColSums(a.value()),
                              1.0f / static_cast<float>(a.rows()));
  return MakeNode(std::move(value), {a}, [](Node& n) {
    Node* pa = n.parents[0].get();
    const float inv = 1.0f / static_cast<float>(pa->value.rows());
    Matrix g(pa->value.rows(), pa->value.cols());
    for (std::int64_t r = 0; r < g.rows(); ++r) {
      const float* grow = n.grad.RowPtr(0);
      float* out = g.RowPtr(r);
      for (std::int64_t c = 0; c < g.cols(); ++c) out[c] = grow[c] * inv;
    }
    pa->AccumulateGrad(g);
  });
}

Var GatherRows(const Var& a, std::vector<std::int64_t> indices) {
  Matrix value = e2gcl::GatherRows(a.value(), indices);
  return MakeNode(std::move(value), {a},
                  [idx = std::move(indices)](Node& n) {
                    Node* pa = n.parents[0].get();
                    Matrix g(pa->value.rows(), pa->value.cols());
                    for (std::size_t i = 0; i < idx.size(); ++i) {
                      const float* grow =
                          n.grad.RowPtr(static_cast<std::int64_t>(i));
                      float* out = g.RowPtr(idx[i]);
                      for (std::int64_t c = 0; c < g.cols(); ++c) {
                        out[c] += grow[c];
                      }
                    }
                    pa->AccumulateGrad(g);
                  });
}

namespace {

/// x[i] *= 0.0f at the sorted `dropped` positions and *= scale elsewhere:
/// the bits of multiplying by the dense mask, NaN/Inf included.
void ApplyDropMask(float* x, std::int64_t n,
                   const std::vector<std::uint32_t>& dropped, float scale) {
  std::int64_t i = 0;
  for (const std::uint32_t k : dropped) {
    for (; i < k; ++i) x[i] *= scale;
    x[i++] *= 0.0f;
  }
  for (; i < n; ++i) x[i] *= scale;
}

}  // namespace

Var Dropout(const Var& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return a;
  E2GCL_CHECK(p < 1.0f);
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  Matrix value = a.value();
  const std::int64_t n = value.size();
  E2GCL_CHECK(n <= static_cast<std::int64_t>(UINT32_MAX));
  // Dropped positions by geometric skips: the run of kept entries before
  // the next drop is floor(log U / log keep) ~ Geometric(1 - keep), so
  // there is one draw per dropped entry plus one that runs off the end.
  auto dropped = std::make_shared<std::vector<std::uint32_t>>();
  const double log_keep = std::log(static_cast<double>(keep));
  if (log_keep < 0.0) {
    dropped->reserve(
        static_cast<std::size_t>(std::ceil(n * (1.0 - keep) * 1.05)) + 64);
    for (std::int64_t last = -1;;) {
      const double skip =
          std::floor(std::log(1.0 - rng.Uniform53()) / log_keep);
      if (skip >= static_cast<double>(n - 1 - last)) break;
      last += static_cast<std::int64_t>(skip) + 1;
      dropped->push_back(static_cast<std::uint32_t>(last));
    }
  }
  ApplyDropMask(value.data(), n, *dropped, scale);
  return MakeNode(std::move(value), {a}, [dropped, scale](Node& n) {
    Matrix g = n.grad;
    ApplyDropMask(g.data(), g.size(), *dropped, scale);
    n.parents[0]->AccumulateGrad(g);
  });
}

Var BatchNormColumns(const Var& x, const Var& gamma, const Var& beta,
                     float eps) {
  const Matrix& in = x.value();
  const std::int64_t n = in.rows(), c = in.cols();
  E2GCL_CHECK(n > 0);
  E2GCL_CHECK(gamma.rows() == 1 && gamma.cols() == c);
  E2GCL_CHECK(beta.rows() == 1 && beta.cols() == c);

  // Forward: column statistics + normalized activations, cached for the
  // backward pass.
  auto mean = std::make_shared<std::vector<float>>(c, 0.0f);
  auto inv_std = std::make_shared<std::vector<float>>(c, 0.0f);
  auto xhat = std::make_shared<Matrix>(n, c);
  for (std::int64_t j = 0; j < c; ++j) {
    double m = 0.0;
    for (std::int64_t i = 0; i < n; ++i) m += in(i, j);
    m /= n;
    double v = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double d = in(i, j) - m;
      v += d * d;
    }
    v /= n;
    (*mean)[j] = static_cast<float>(m);
    (*inv_std)[j] = 1.0f / std::sqrt(static_cast<float>(v) + eps);
  }
  Matrix value(n, c);
  const float* g_row = gamma.value().RowPtr(0);
  const float* b_row = beta.value().RowPtr(0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      const float h = (in(i, j) - (*mean)[j]) * (*inv_std)[j];
      (*xhat)(i, j) = h;
      value(i, j) = g_row[j] * h + b_row[j];
    }
  }

  return MakeNode(
      std::move(value), {x, gamma, beta},
      [mean, inv_std, xhat, n, c](Node& node) {
        Node* px = node.parents[0].get();
        Node* pg = node.parents[1].get();
        Node* pb = node.parents[2].get();
        const Matrix& g = node.grad;
        if (pg->requires_grad) {
          Matrix dg(1, c);
          for (std::int64_t j = 0; j < c; ++j) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < n; ++i) {
              acc += static_cast<double>(g(i, j)) * (*xhat)(i, j);
            }
            dg(0, j) = static_cast<float>(acc);
          }
          pg->AccumulateGrad(dg);
        }
        if (pb->requires_grad) {
          pb->AccumulateGrad(e2gcl::ColSums(g));
        }
        if (px->requires_grad) {
          // dx = gamma * inv_std * (g - mean(g) - xhat * mean(g*xhat)).
          Matrix dx(n, c);
          const float* gamma_row = pg->value.RowPtr(0);
          for (std::int64_t j = 0; j < c; ++j) {
            double g_mean = 0.0, gx_mean = 0.0;
            for (std::int64_t i = 0; i < n; ++i) {
              g_mean += g(i, j);
              gx_mean += static_cast<double>(g(i, j)) * (*xhat)(i, j);
            }
            g_mean /= n;
            gx_mean /= n;
            const float scale = gamma_row[j] * (*inv_std)[j];
            for (std::int64_t i = 0; i < n; ++i) {
              dx(i, j) = scale * (g(i, j) - static_cast<float>(g_mean) -
                                  (*xhat)(i, j) * static_cast<float>(gx_mean));
            }
          }
          px->AccumulateGrad(dx);
        }
      });
}

}  // namespace ag
}  // namespace e2gcl
