// bench/fig_cholesky.cpp
//
// Reproduces Figures 4, 5, 6 of the paper: relative error (normalized
// difference with Monte-Carlo) of First Order, Dodin and Normal on tiled
// Cholesky DAGs, k in {4,6,8,10,12}, pfail in {1e-2, 1e-3, 1e-4}.

#include "fig_sweep.hpp"

int main(int argc, char** argv) {
  return expmk::bench::run_fig_sweep(argc, argv, "cholesky",
                                     /*first_figure=*/4);
}
