//! One module per paper table/figure. Each exposes `run()`, which prints
//! the regenerated artifact and mirrors it to `bench_out/`.

pub mod bandwidth;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig8;
pub mod fig9;
pub mod table14;
pub mod table2;
pub mod table7;
